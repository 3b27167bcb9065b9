"""Binary rewriting: E-DVI insertion/stripping and DVI verification."""

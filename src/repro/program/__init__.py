"""Program representation, authoring DSL, assembler, and disassembler."""

"""ISA definition: registers, opcodes, instructions, ABI, binary encoding."""

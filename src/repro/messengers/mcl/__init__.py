"""MCL — the Messenger Control Language.

The C-subset scripting language Messengers are written in (§2.1 of the
paper): lexer → parser → bytecode compiler → stack-VM interpreter, plus
the command objects through which the VM talks to its daemon.

Messengers run on the interpreter in :mod:`.vm`: an integer-opcode
dispatch loop that charges every instruction to the executing daemon,
as the paper's per-host daemons interpret compiled Messenger scripts.
"""

from .ast import Script
from .bytecode import (
    Command,
    CreateCommand,
    CreateItemSpec,
    DeleteCommand,
    DoneCommand,
    HopCommand,
    Instr,
    Program,
    SchedCommand,
)
from .compiler import CompileError, compile_all, compile_function, compile_source
from .lexer import LexError, Token, tokenize
from .parser import ParseError, parse, parse_function
from .vm import Frame, MclRuntimeError, run

__all__ = [
    "Command",
    "CompileError",
    "CreateCommand",
    "CreateItemSpec",
    "DeleteCommand",
    "DoneCommand",
    "Frame",
    "HopCommand",
    "Instr",
    "LexError",
    "MclRuntimeError",
    "ParseError",
    "Program",
    "SchedCommand",
    "Script",
    "Token",
    "compile_all",
    "compile_function",
    "compile_source",
    "parse",
    "parse_function",
    "run",
    "tokenize",
]

"""Build a C engine once per source digest and load it with ctypes.

Both native engines, the timing kernel (``sim/ooo/kernel.c``) and the
functional engine (``sim/functional.c``), are single C files with no
dependencies.  A :class:`KernelLoader` compiles one with the system
``cc`` into a per-user cache directory, names the shared object by a
digest of the source, the compiler and the flags, and loads it from
there in every later process.  ``ctypes``, ``shutil`` and
``subprocess`` are imported on the first load, so importing the CLI
does not pay for them.

Each engine keeps a Python oracle that runs whenever its loader says
the engine is unavailable.  The first such fallback in a process warns
(:meth:`KernelLoader.load_or_warn`), naming the engine and the reason.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
import warnings
from array import array
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

__all__ = ["FLAGS", "ITEM_SIZES", "KernelLoader"]

FLAGS = ("-O2", "-shared", "-fPIC")

#: The item sizes the C engines assume for each ``array`` typecode.
ITEM_SIZES = {"i": 4, "I": 4, "q": 8, "h": 2, "b": 1, "B": 1}

#: An entry symbol's ctypes signature: the result type (None for void)
#: and the argument types, each named by its ``ctypes.c_<name>`` suffix.
Signature = Tuple[Optional[str], Sequence[str]]


class KernelLoader:
    """Builds one C source once per digest and loads it with ctypes.

    :meth:`load` returns the loaded library, with every entry symbol's
    signature set, or ``None`` when the engine is unavailable, with
    :attr:`reason` saying why (no compiler, a failed build or load, or
    array item sizes the C code does not assume).  The outcome is
    decided once per loader.
    """

    def __init__(
        self, source: Path, stem: str, engine: str,
        symbols: Dict[str, Signature], compiler: str = "cc",
    ) -> None:
        self.source = source
        #: The shared object's file name prefix.
        self.stem = stem
        #: What the fallback warning calls this engine.
        self.engine = engine
        self.symbols = symbols
        self.compiler = compiler
        #: Why the engine is unavailable (``None`` once it loaded).
        self.reason: Optional[str] = "not loaded yet"
        self._library: Any = None
        self._loaded = False
        self._warned = False
        self._lock = threading.Lock()

    def load(self) -> Any:
        if not self._loaded:
            with self._lock:
                if not self._loaded:
                    self._library = self._load()
                    self._loaded = True
        return self._library

    def load_or_warn(self) -> Any:
        """:meth:`load`, warning once per loader when it returns None."""
        library = self.load()
        if library is None and not self._warned:
            self._warned = True
            warnings.warn(
                f"{self.engine} unavailable, running its Python oracle: "
                f"{self.reason}", RuntimeWarning, stacklevel=3,
            )
        return library

    def _load(self) -> Any:
        import ctypes
        import shutil

        sizes = {code: array(code).itemsize for code in ITEM_SIZES}
        if sizes != ITEM_SIZES:
            self.reason = f"array item sizes {sizes} differ from {ITEM_SIZES}"
            return None
        compiler = shutil.which(self.compiler)
        if compiler is None:
            self.reason = f"no C compiler found at {self.compiler!r}"
            return None
        source = self.source.read_bytes()
        digest = hashlib.sha256(
            b"\0".join([source, os.path.realpath(compiler).encode(),
                        " ".join(FLAGS).encode()])
        ).hexdigest()[:16]
        name = f"{self.stem}-{digest}.so"
        directory = _user_cache_dir()
        scratch = None
        if directory is None:
            # Build privately: never load a file someone else could plant.
            directory = scratch = Path(tempfile.mkdtemp(prefix="repro-native-"))
        path = directory / name
        try:
            if scratch is not None or not path.exists():
                failure = _build(compiler, source, path)
                if failure is not None:
                    self.reason = failure
                    return None
            library = ctypes.CDLL(str(path))
            for symbol, (restype, argtypes) in self.symbols.items():
                function = getattr(library, symbol)
                function.restype = (None if restype is None
                                    else getattr(ctypes, f"c_{restype}"))
                function.argtypes = [getattr(ctypes, f"c_{arg}")
                                     for arg in argtypes]
        except (OSError, AttributeError) as error:
            self.reason = f"cannot load {path}: {error}"
            return None
        finally:
            if scratch is not None:
                shutil.rmtree(scratch, ignore_errors=True)
        self.reason = None
        return library


def _user_cache_dir() -> Optional[Path]:
    """``$XDG_CACHE_HOME/repro/native``, if it is private and writable."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    if not os.path.isabs(base):
        return None
    directory = Path(base) / "repro" / "native"
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = directory.stat()
    except OSError:
        return None
    if (info.st_uid != os.getuid() or info.st_mode & 0o022
            or not os.access(directory, os.W_OK)):
        return None
    return directory


def _build(compiler: str, source: bytes, path: Path) -> Optional[str]:
    """Compile ``source`` to ``path`` atomically; the failure, or None."""
    import subprocess

    handle, temp = tempfile.mkstemp(dir=path.parent, suffix=".so.tmp")
    os.close(handle)
    try:
        result = subprocess.run(
            [compiler, *FLAGS, "-x", "c", "-", "-o", temp],
            input=source, capture_output=True,
        )
        if result.returncode != 0:
            output = result.stderr.decode("utf-8", "replace").strip()
            return f"{compiler} failed ({result.returncode}): {output[-500:]}"
        os.replace(temp, path)
        return None
    except OSError as error:
        return f"cannot run {compiler}: {error}"
    finally:
        if os.path.exists(temp):
            os.unlink(temp)

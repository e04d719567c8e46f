"""Scalar kernel: one arithmetic surface for floats, numpy arrays and dual numbers.

Every Hamiltonian/frequency/momentum oracle in this package is written against
the functions below (``sin``, ``cos``, ``sqrt``, ...) and plain ``+ - * / **``.
The same oracle source then evaluates

* on floats (plain evaluation),
* on numpy arrays (batched evaluation over many phase points at once),
* on :class:`Dual` numbers (exact forward-mode differentiation), including
  duals whose components are arrays or further duals (nested derivatives).

Each differentiation pass seeds its duals with a fresh ``tag``; arithmetic
between duals of different tags treats the lower-tagged one as a constant.
This keeps nested passes (second derivatives, derivatives through closed
forms that differentiate internally) from confusing their perturbations.

Compiled code
-------------
:func:`tangent` is the package's one compiler. It turns an oracle's outputs,
and their derivatives along given input tangents (Jacobian-vector products,
as in a variational equation), into straight-line Python: the evaluation
trace and source transformation of forward-mode differentiation (Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., ch. 2-3; Wengert, Commun. ACM 7,
1964). The oracle runs once on tracer objects, which record each operation
as one assignment. The recorded code is emitted as one ODE field and run
once (:func:`exec_emitted`): ``bind`` takes the oracle's last block of
coordinates and their tangents (the orbit field's slow block, the drift
field's ε) and returns ``rhs(t, y)`` over the other blocks', which runs the
assignments on plain floats or arrays and returns the values, then the
tangents, as one flat tuple. With no tangent directions it compiles values
alone: the drift field, whose oracle takes H's partials by ``Dual`` passes of
its own (``phase.velocity``), as the orbit field's does.

The recording is :class:`Dual`'s own arithmetic on traced parts. A tracer
value records only its value's code; each coordinate with tangents is a
``Dual`` of such a value and a tangent that holds one code per direction.
``Dual``'s operators and this module's ``sqrt/sin/cos/exp/log`` then take
the same branches and formulas as in a multidual pass with the same
tangents, and record them; a ``Dual`` pass the oracle takes for itself
nests on top in the same way. Each tangent component of a multidual pass is
that formula applied to the matching components, and IEEE + - * / and
``sqrt`` round each element on its own, so the compiled code equals the
multidual evaluation bit for bit. Only exact no-ops are left out: adding a
zero tangent component, which can change the sign of a zero and nothing
else, and a product by the literal 1.0 (the seed's tangent of an inner
``Dual`` pass, or a constant such as a parameter B = 1.0) or a quotient by
it, which returns a float or float array unchanged. An expression recorded
twice is computed once, and code the outputs do not use is dropped. The
emitted code is kept as ``bind.source`` and its parts as ``rhs.program``
(:class:`Program`), with ``rhs.inputs`` its inputs' values: ``integrators``
pastes the program into its one-point DOP853 runs.
The compiled code computes with the floats or arrays it is called with, so
``**`` and the elementary functions see scalars where a multidual pass over
the same coordinates holds scalars and arrays where it holds arrays; that
matters because numpy's scalar and array ``**`` round differently. (Python
floats and numpy float64 scalars round alike: both ``**`` call the C
library's ``pow``.) The emitted code calls numpy's ``sqrt/sin/cos/exp/log``
and no ``math`` function.

The tracer knows ``+ - * /``, unary minus, integer ``**`` and this module's
``sqrt/sin/cos/exp/log``. Anything else raises
:class:`~adiakit.errors.TraceError` while tracing: a comparison or ``bool``
(``Dual``'s act on values, which a trace does not have), ``abs``,
``float()``, a numpy ufunc, :func:`value`. :func:`tangent` then falls back
to one multidual evaluation per call behind the same signature, so an oracle
that branches on its inputs still gets its exact derivatives, and an
oracle's own errors surface when it is evaluated.

Code cache
----------
:func:`exec_emitted` runs all emitted code (the traced fields and
``integrators``' DOP853 run) and keeps each compiled code object beside this
package's own bytecode, as ``__pycache__`` keeps a module's (PEP 3147): a
``marshal`` file named by ``importlib.util.source_hash`` of filename and
key and by ``MAGIC_NUMBER``, used only if it holds the same key: the source,
or what generates it (the DOP853 run's), so that a load builds no source.
Any other entry is compiled and rewritten, through a file named with the
process id and ``os.replace``, so that workers may race; where it cannot be
written, the code stays in memory. A load refreshes its entry's mtime, and a
write removes the least recently used entries beyond ``_CODE_CACHE_CAP``.
``PYTHONDONTWRITEBYTECODE`` is not consulted: it governs imported modules'
``.pyc`` files, and environments that set it would compile every emitted
source in every process again.
"""

from __future__ import annotations

import contextlib
import importlib.util
import itertools
import marshal
import os
import types
from typing import NamedTuple

import numpy as np

from .errors import TraceError

__all__ = [
    "Dual",
    "value",
    "fresh_tag",
    "derivative",
    "extract_partial",
    "map_parts",
    "broadcast",
    "tangent",
    "trace_tangent",
    "Program",
    "exec_emitted",
    "sin",
    "cos",
    "sqrt",
    "exp",
    "log",
]

_TAGS = itertools.count(1)


def fresh_tag() -> int:
    """A new perturbation tag; every differentiation pass must use its own."""
    return next(_TAGS)


class Dual:
    """First-order dual number ``val + eps·δ`` with ``δ² = 0``.

    ``val`` and ``eps`` may be floats, numpy arrays, or ``Dual`` instances of
    a lower tag (nesting gives higher derivatives). Comparisons and the truth
    value act on the underlying values so that domain checks and branches
    behave exactly as in plain evaluation.
    """

    __slots__ = ("val", "eps", "tag")

    # Keep numpy from consuming ``ndarray (op) Dual`` elementwise.
    __array_priority__ = 1000.0

    def __init__(self, val, eps, tag: int = 0):
        self.val = val
        self.eps = eps
        self.tag = tag

    def __repr__(self):
        return f"Dual({self.val!r}, {self.eps!r}, tag={self.tag})"

    def _parts(self, other):
        """Align two operands on the dominant tag; lower tags are constants."""
        tx = self.tag
        ty = other.tag if isinstance(other, Dual) else None
        if ty is None or tx > ty:
            return tx, self.val, self.eps, other, None
        if tx < ty:
            return ty, self, None, other.val, other.eps
        return tx, self.val, self.eps, other.val, other.eps

    def __add__(self, other):
        tag, xv, xe, yv, ye = self._parts(other)
        if xe is None:
            return Dual(xv + yv, ye, tag)
        if ye is None:
            return Dual(xv + yv, xe, tag)
        return Dual(xv + yv, xe + ye, tag)

    __radd__ = __add__

    def __sub__(self, other):
        tag, xv, xe, yv, ye = self._parts(other)
        if xe is None:
            return Dual(xv - yv, -ye, tag)
        if ye is None:
            return Dual(xv - yv, xe, tag)
        return Dual(xv - yv, xe - ye, tag)

    def __rsub__(self, other):
        return Dual(other - self.val, -self.eps, self.tag)

    def __mul__(self, other):
        tag, xv, xe, yv, ye = self._parts(other)
        if xe is None:
            return Dual(xv * yv, xv * ye, tag)
        if ye is None:
            return Dual(xv * yv, xe * yv, tag)
        return Dual(xv * yv, xv * ye + xe * yv, tag)

    __rmul__ = __mul__

    def __truediv__(self, other):
        tag, xv, xe, yv, ye = self._parts(other)
        if ye is None:
            return Dual(xv / yv, xe / yv, tag)
        inv = 1.0 / yv
        if xe is None:
            v = xv * inv
            return Dual(v, -v * inv * ye, tag)
        v = xv * inv
        return Dual(v, (xe - v * ye) * inv, tag)

    def __rtruediv__(self, other):
        inv = 1.0 / self.val
        v = other * inv
        return Dual(v, -v * inv * self.eps, self.tag)

    def __pow__(self, n):
        if isinstance(n, Dual):
            raise TypeError("dual exponents are not supported; use exp/log")
        if n == 0:
            return Dual(self.val ** 0, self.eps * 0.0, self.tag)
        return Dual(self.val ** n, n * self.val ** (n - 1) * self.eps, self.tag)

    def __neg__(self):
        return Dual(-self.val, -self.eps, self.tag)

    def __pos__(self):
        return self

    def __abs__(self):
        s = np.sign(value(self))
        return Dual(self.val * s, self.eps * s, self.tag)

    # Comparisons on values only: branch decisions match plain evaluation.
    def __lt__(self, other):
        return value(self) < value(other)

    def __le__(self, other):
        return value(self) <= value(other)

    def __gt__(self, other):
        return value(self) > value(other)

    def __ge__(self, other):
        return value(self) >= value(other)

    def __eq__(self, other):
        return value(self) == value(other)

    def __ne__(self, other):
        return value(self) != value(other)

    def __bool__(self):
        return bool(value(self))

    __hash__ = None

    def __float__(self):
        return float(value(self))


def value(x):
    """Strip all dual layers, returning the underlying float or array."""
    while isinstance(x, Dual):
        x = x.val
    if isinstance(x, _Trace):
        raise TraceError("value() would drop the derivative of a traced value")
    return x


def extract_partial(out, tag):
    """Derivative of an evaluation result with respect to the given tag."""
    if isinstance(out, Dual) and out.tag == tag:
        return out.eps
    while isinstance(out, Dual):
        out = out.val
    # no dependence on the seeded coordinate
    return 0.0 if isinstance(out, _Trace) else np.zeros(np.shape(out))


def map_parts(fn, x):
    """Apply ``fn`` to every float or array part of a (possibly nested) dual.

    Right for maps that act on each part alone, such as broadcasting or a
    linear operator along the trailing axis: a multidual pass carries its
    direction axis in front of the value's axes, so trailing axes line up in
    every part.
    """
    if isinstance(x, Dual):
        return Dual(map_parts(fn, x.val), map_parts(fn, x.eps), x.tag)
    return fn(x)


def broadcast(x, shape):
    """``x`` broadcast to ``shape``; dual parts keep their leading direction axes.
    A part whose trailing axes are ``shape`` comes back as it is: no caller
    writes into the result."""
    def part(a):
        a = np.asarray(a, dtype=float)
        if a.shape[a.ndim - len(shape):] == shape:
            return a
        return np.broadcast_to(a, np.broadcast_shapes(a.shape, shape))

    return map_parts(part, x)


def derivative(f, x):
    """d f / d x at ``x`` for a unary kernel-generic ``f`` (float or array)."""
    tag = fresh_tag()
    return extract_partial(f(Dual(x, 1.0, tag)), tag)


def sin(x):
    if isinstance(x, Dual):
        return Dual(sin(x.val), cos(x.val) * x.eps, x.tag)
    if isinstance(x, _Trace):
        return x.call("sin")
    return np.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(cos(x.val), -sin(x.val) * x.eps, x.tag)
    if isinstance(x, _Trace):
        return x.call("cos")
    return np.cos(x)


def sqrt(x):
    if isinstance(x, Dual):
        root = sqrt(x.val)
        return Dual(root, x.eps / (2.0 * root), x.tag)
    if isinstance(x, _Trace):
        return x.call("sqrt")
    return np.sqrt(x)


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.val)
        return Dual(e, e * x.eps, x.tag)
    if isinstance(x, _Trace):
        return x.call("exp")
    return np.exp(x)


def log(x):
    if isinstance(x, Dual):
        return Dual(log(x.val), x.eps / x.val, x.tag)
    if isinstance(x, _Trace):
        return x.call("log")
    return np.log(x)


# ---------------------------------------------------------------------------
# Tracer (see "Compiled code" in the module docstring)
# ---------------------------------------------------------------------------

_ONE = "1.0"  # an inner Dual pass's seed tangent, and the constant 1.0
_FUNCTIONS = {"sqrt": np.sqrt, "sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log}


class _Tape:
    """Straight-line code being recorded: one assignment per operation.

    Operands are code strings: tape variables ``v<n>``, bound constants
    ``k<n>``, literals, or the negation ``-a`` of one of these, which is
    folded into the expression that uses it. The recording seeds its
    coordinates with ``tag``.
    """

    def __init__(self):
        self.lines = []  # (target, expression, operands)
        self.consts = {}
        self.tag = fresh_tag()
        self._seen = {}
        self._names = itertools.count()

    def name(self):
        return f"v{next(self._names)}"

    def emit(self, template, *operands):
        expr = template.format(*operands)
        target = self._seen.get(expr)  # the same expression twice gives the same bits
        if target is None:
            target = self._seen[expr] = self.name()
            # an operand's code is a variable or constant, or its negation
            self.lines.append((target, expr, [a.lstrip("-") for a in operands]))
        return target

    def code(self, x):
        """Code for an operand: a value traced on this tape, or a constant
        with its exact value and type."""
        if isinstance(x, _Trace):
            if x.tape is not self:
                raise TraceError("operands from two different traces")
            return x.v
        if type(x) is int or (type(x) is float and np.isfinite(x)):
            code = repr(x)
            return f"({code})" if code.startswith("-") else code
        if isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool):
            code = f"k{len(self.consts)}"
            self.consts[code] = x
            return code
        raise TraceError(f"cannot trace an operand of type {type(x).__name__}")

    # a tangent component of None is an exact zero; dropping a None term, a
    # factor 1.0 or a divisor 1.0 is exact
    def mul(self, a, b):
        if a is None or b is None:
            return None
        if a == _ONE:
            return b
        if b == _ONE:
            return a
        return self.emit("{} * {}", a, b)

    def div(self, a, b):
        if a is None or b == _ONE:
            return a
        return self.emit("{} / {}", a, b)

    def add(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return self.emit("{} + {}", a, b)

    def sub(self, a, b):
        if b is None:
            return a
        if a is None:
            return self.neg(b)
        return self.emit("{} - {}", a, b)

    def neg(self, a):  # no assignment of its own; −(−a) is a, bit for bit
        return a if a is None else a[1:] if a.startswith("-") else f"-{a}"


class _Trace:
    """A value recorded on a tape as the code ``v``. It carries no derivative:
    a seeded coordinate is a :class:`Dual` of a trace and a :class:`_Tangent`,
    so ``Dual``'s own rules record every derivative."""

    __slots__ = ("tape", "v")
    __array_ufunc__ = None  # numpy defers its operators to ours; its ufuncs raise

    def __init__(self, tape, v):
        self.tape = tape
        self.v = v

    def _op(self, op, other, reflected=False):
        if isinstance(other, (Dual, _Tangent)):
            return NotImplemented  # their operator records the operation
        y = self.tape.code(other)
        return _Trace(self.tape, op(y, self.v) if reflected else op(self.v, y))

    def __add__(self, other):
        return self._op(self.tape.add, other)

    def __sub__(self, other):
        return self._op(self.tape.sub, other)

    def __rsub__(self, other):
        return self._op(self.tape.sub, other, reflected=True)

    def __mul__(self, other):
        return self._op(self.tape.mul, other)

    def __truediv__(self, other):
        return self._op(self.tape.div, other)

    def __rtruediv__(self, other):
        return self._op(self.tape.div, other, reflected=True)

    __radd__, __rmul__ = __add__, __mul__

    def __pow__(self, n):
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise TraceError("only integer powers are traced")
        base = f"({self.v})" if self.v.startswith("-") else self.v  # −a ** n is −(a ** n)
        return _Trace(self.tape, self.tape.emit("{} ** {}", base, self.tape.code(n)))

    def __neg__(self):
        return _Trace(self.tape, self.tape.neg(self.v))

    def __pos__(self):
        return self

    def call(self, function):
        """This value through one of the emitted code's ``_FUNCTIONS``."""
        return _Trace(self.tape, self.tape.emit(function + "({})", self.v))

    def _refuse(self, *args, **kwargs):
        raise TraceError("the oracle branches on, or converts, a traced value")

    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = _refuse
    __bool__ = __abs__ = __float__ = __int__ = __index__ = __array__ = _refuse
    __hash__ = None


class _Tangent:
    """The tangent part of a seeded :class:`Dual` on a tape: one code per
    seeded direction, ``None`` for an exact zero. It knows the operations
    ``Dual`` applies to tangents: a sum or difference of two tangents, and a
    product or quotient by a value."""

    __slots__ = ("tape", "d")
    __array_ufunc__ = None  # numpy defers its operators to ours

    def __init__(self, tape, d):
        self.tape = tape
        self.d = tuple(d)

    def __add__(self, other):
        return _Tangent(self.tape, map(self.tape.add, self.d, other.d))

    def __sub__(self, other):
        return _Tangent(self.tape, map(self.tape.sub, self.d, other.d))

    def __neg__(self):
        return _Tangent(self.tape, map(self.tape.neg, self.d))

    def __mul__(self, other):
        y = self.tape.code(other)
        return _Tangent(self.tape, [self.tape.mul(a, y) for a in self.d])

    __rmul__ = __mul__

    def __truediv__(self, other):
        y = self.tape.code(other)
        return _Tangent(self.tape, [self.tape.div(a, y) for a in self.d])


def _blocks(items, blocks):
    """``items`` cut into consecutive lists of the given lengths."""
    out, start = [], 0
    for size in blocks:
        out.append(list(items[start:start + size]))
        start += size
    return out


def _record(f, blocks, tangents):
    """(tape, argument names, output) of ``f`` run once on traced coordinates:
    coordinate ``i`` is a :class:`Dual` of the tape's tag with the tangent
    codes ``tangents[i]``, or a plain trace where that is None.
    :class:`TraceError` if ``f`` cannot be recorded."""
    tape = _Tape()
    args = [tape.name() for _ in range(sum(blocks))]
    coords = [_Trace(tape, a) if d is None else Dual(_Trace(tape, a), _Tangent(tape, d), tape.tag)
              for a, d in zip(args, tangents)]
    try:
        out = f(*_blocks(coords, blocks))
    except Exception as exc:  # whatever stops the trace, the Dual path reproduces
        raise TraceError(f"cannot trace {getattr(f, '__qualname__', f)!r}: {exc}") from exc
    return tape, args, out


def _codes(tape, out, n):
    """(value code, ``n`` tangent codes) of one recorded output; a constant
    has zero tangents, and anything else raises."""
    d = (None,) * n
    if isinstance(out, Dual) and out.tag == tape.tag:
        out, d = out.val, out.eps.d
    return tape.code(out), ["0.0" if a is None else a for a in d]


class Program(NamedTuple):
    """A traced field's code: ``body``, one assignment a line, computes the
    codes ``outputs`` from ``y``'s coordinates ``args`` and from ``inputs``:
    ``bind``'s arguments, numpy's sqrt/sin/cos/exp/log and constants."""

    args: tuple
    inputs: tuple
    body: tuple
    outputs: tuple


def trace_tangent(f, blocks, directions):
    """Compiled values and directional derivatives of ``f``'s outputs, as a field.

    ``f`` takes one list of kernel scalars per entry of ``blocks``, returns a
    list of outputs, and may take :class:`Dual` passes of its own. The
    returned ``bind`` takes the last block's coordinates, then ``directions``
    tangent components of each; its ``rhs(t, y)`` takes the other blocks' in
    ``y`` and returns the outputs' values, then their tangent components, as
    one flat tuple. Raises :class:`TraceError` on an operation the tracer
    does not know.
    """
    dots = [[f"t{i}_{d}" for d in range(directions)] for i in range(sum(blocks))]
    # no directions: plain values, not duals, so that x/y is traced as x/y
    tape, args, out = _record(f, blocks, [d or None for d in dots])
    results = [_codes(tape, o, directions) for o in out]
    outputs = [v for v, _ in results] + [t for _, d in results for t in d]
    needed, body = {o.lstrip("-") for o in outputs}, []
    for target, expr, operands in reversed(tape.lines):
        if target in needed:  # dead code (e.g. f's own value) is left out
            body.append(f"{target} = {expr}")
            needed.update(operands)
    free = sum(blocks[:-1])  # coordinates in y
    bound = args[free:] + [t for d in dots[free:] for t in d]
    program = Program(tuple(args[:free] + [t for d in dots[:free] for t in d]),
                      (*bound, *_FUNCTIONS, *tape.consts), tuple(reversed(body)), tuple(outputs))
    source = (f"def bind({', '.join(bound)}):\n    def rhs(t, y):\n"
              f"        {', '.join(program.args)}, = y\n"
              + "".join(f"        {line}\n" for line in program.body)
              + f"        return ({', '.join(outputs)},)\n"
              f"    rhs.program, rhs.inputs = program, ({', '.join(program.inputs)},)\n    return rhs\n")
    namespace = dict(_FUNCTIONS, **tape.consts, program=program)
    bind = exec_emitted(source, "<traced field>", namespace)["bind"]
    bind.source = source
    return bind


def _multidual_tangent(f, blocks, directions):
    """The same ``bind``, whose ``rhs`` takes one multidual evaluation of ``f`` per call."""
    n, free = sum(blocks), sum(blocks[:-1])

    def bind(*bound):
        def rhs(t, y):
            args = [*y[:free], *bound[:n - free], *y[free:], *bound[n - free:]]
            if len(set(map(np.shape, args))) > 1:  # one shape, so direction axes lead alike
                args = np.broadcast_arrays(*args)
            tag = fresh_tag()  # direction axis first; no directions: plain values
            coords = [Dual(c, np.reshape(args[n + i * directions:n + (i + 1) * directions],
                                         (directions,) + np.shape(c)), tag) if directions else c
                      for i, c in enumerate(args[:n])]
            results = [o if isinstance(o, Dual) and o.tag == tag
                       else Dual(o, np.zeros(directions), tag)
                       for o in f(*_blocks(coords, blocks))]
            return tuple(o.val for o in results) + tuple(e for o in results for e in o.eps)

        return rhs

    return bind


def tangent(f, blocks, directions):
    """``bind`` of the field of ``f``'s outputs and their tangents
    (:func:`trace_tangent`), or, when ``f`` cannot be traced, a ``bind`` of
    the same signature whose ``rhs`` takes one multidual evaluation of ``f``
    per call with the same results.
    """
    try:
        return trace_tangent(f, blocks, directions)
    except TraceError:
        return _multidual_tangent(f, blocks, directions)


_CODE_CACHE = os.path.dirname(importlib.util.cache_from_source(__file__))
_CODE = {}  # (filename, key) -> code object, compiled or loaded by this process
# Entries kept, the most recently used: each source emitted with other literals
# or by an older version of the package adds one for good. A tier-1 test run,
# which emits more distinct sources than any command, writes 94 (4.2 MB)
_CODE_CACHE_CAP = 128


def _prune_code_cache():
    """Remove the least recently used entries beyond ``_CODE_CACHE_CAP``
    (a write sets an entry's mtime, a load refreshes it)."""
    entries = []
    with contextlib.suppress(OSError), os.scandir(_CODE_CACHE) as found:
        for entry in found:
            if entry.name.startswith("emitted-") and "." not in entry.name:  # no temp file
                with contextlib.suppress(OSError):  # another process removed it
                    entries.append((entry.stat().st_mtime_ns, entry.path))
    for _, path in sorted(entries)[:-_CODE_CACHE_CAP]:
        with contextlib.suppress(OSError):  # another process removed it first
            os.remove(path)


def exec_emitted(source, filename, namespace, key=None):
    """Run emitted ``source`` in ``namespace``, compiled once per machine
    ("Code cache" in the module docstring), and return ``namespace``. With a
    ``key``, ``source`` may be a function that returns it, called to compile."""
    key = source if key is None else key
    code = _CODE.get((filename, key))
    if code is None:
        name = importlib.util.source_hash(f"{filename}\0{key}".encode()).hex()
        path = os.path.join(_CODE_CACHE, f"emitted-{name}-{importlib.util.MAGIC_NUMBER.hex()}")
        try:
            with open(path, "rb") as fh:
                *stored, code = marshal.load(fh)
            if stored != [filename, key] or not isinstance(code, types.CodeType):
                raise ValueError(f"{path} holds another source")
            with contextlib.suppress(OSError):  # the entry only looks older
                os.utime(path)
        except (OSError, EOFError, ValueError, TypeError):
            text = source() if callable(source) else source
            code, temp = compile(text, filename, "exec"), f"{path}.{os.getpid()}"
            try:
                os.makedirs(_CODE_CACHE, exist_ok=True)
                with open(temp, "wb") as fh:
                    marshal.dump((filename, key, code), fh)
                os.replace(temp, path)
            except OSError:  # no entry: this process keeps the code in memory
                with contextlib.suppress(OSError):
                    os.remove(temp)
            else:
                _prune_code_cache()
        _CODE[filename, key] = code
    exec(code, namespace)
    return namespace

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

Compiled gradients
------------------
:func:`gradient` turns an oracle into straight-line Python for its gradient
along chosen coordinates: the evaluation trace and source transformation of
forward-mode differentiation (Griewank & Walther, *Evaluating Derivatives*,
2nd ed., ch. 2-3; Wengert, Commun. ACM 7, 1964). The oracle runs once on
tracer objects, which record each operation as one assignment; the recorded
code is ``exec``'d once and then called with plain floats or arrays.

The recording mirrors :class:`Dual` op by op. An operand counts as dual when
it depends on a seeded coordinate, and each operation takes the branch and
the formula that ``Dual`` takes with those operands: ``Dual/Dual`` computes
``inv = 1.0/y; v = x*inv; t = (x' - v*y')*inv``, ``Dual/const`` computes
``x/y`` and ``x'/y``, ``const/Dual`` computes ``-v*inv*y'``, and so on. Each
tangent component of a multidual pass is that formula applied to the
matching components, and IEEE + - * / and ``sqrt`` round each element on its
own, so the compiled gradient equals the multidual gradient bit for bit. Only
exact no-ops are left out: adding a zero tangent component, which can change
the sign of a zero and nothing else, and a product by the literal 1.0 (the
seed's tangent, or a constant such as a parameter B = 1.0) or a quotient by
it, which returns a float or float array unchanged. An expression recorded twice is computed
once, and code the gradient does not use (such as the oracle's own value) is
dropped. The emitted code is kept as the compiled function's ``source``.
The compiled code computes with the floats or arrays it is called with, so
``**`` and the elementary functions see scalars where a multidual pass over
the same coordinates holds scalars and arrays where it holds arrays; that
matters because numpy's scalar and array ``**`` round differently. (Python
floats and numpy float64 scalars round alike: both ``**`` call the C
library's ``pow``.) The emitted code calls numpy's ``sqrt/sin/cos/exp/log``
and no ``math`` function.

:func:`tangent` compiles an oracle's outputs with their derivatives along
given input tangents (Jacobian-vector products, as in a variational equation).
The oracle may differentiate internally with a :class:`Dual` pass: a tracer
operation with a ``Dual`` operand returns ``NotImplemented``, so ``Dual``'s
reflected operator runs and its formula is recorded on the traced parts.

The tracer knows ``+ - * /``, unary minus, integer ``**`` and this module's
``sqrt/sin/cos/exp/log``. Anything else raises
:class:`~adiakit.errors.TraceError` while tracing: a comparison, ``bool``,
``abs``, ``float()``, a numpy ufunc, :func:`value`. :func:`gradient` and
:func:`tangent` then fall back to one multidual evaluation per call behind
the same signature, so an oracle that branches on its inputs still gets its
exact derivatives, and an oracle's own errors surface when it is evaluated.
"""

from __future__ import annotations

import itertools

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
    "gradient",
    "trace_gradient",
    "tangent",
    "trace_tangent",
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
    a lower tag (nesting gives higher derivatives). Comparisons act on the
    underlying values so that domain checks and branches behave exactly as in
    plain evaluation.
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
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

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
    # no dependence on the seeded coordinate
    return 0.0 if isinstance(out, _Trace) else np.zeros(np.shape(value(out)))


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
    """``x`` broadcast to ``shape``; dual parts keep their leading direction axes."""
    def part(a):
        a = np.asarray(a, dtype=float)
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
        return x.sin()
    return np.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(cos(x.val), -sin(x.val) * x.eps, x.tag)
    if isinstance(x, _Trace):
        return x.cos()
    return np.cos(x)


def sqrt(x):
    if isinstance(x, Dual):
        root = sqrt(x.val)
        return Dual(root, x.eps / (2.0 * root), x.tag)
    if isinstance(x, _Trace):
        return x.sqrt()
    return np.sqrt(x)


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.val)
        return Dual(e, e * x.eps, x.tag)
    if isinstance(x, _Trace):
        return x.exp()
    return np.exp(x)


def log(x):
    if isinstance(x, Dual):
        return Dual(log(x.val), x.eps / x.val, x.tag)
    if isinstance(x, _Trace):
        return x.log()
    return np.log(x)


# ---------------------------------------------------------------------------
# Gradient tracer (see "Compiled gradients" in the module docstring)
# ---------------------------------------------------------------------------

_ONE = "1.0"  # a seed's tangent along its own direction, and the constant 1.0
_FUNCTIONS = {"sqrt": np.sqrt, "sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log}


class _Tape:
    """Straight-line code being recorded: one assignment per operation.

    Operands are code strings: tape variables ``v<n>``, bound constants
    ``k<n>``, or literals. A tangent component of ``None`` is an exact zero.
    """

    def __init__(self):
        self.lines = []  # (target, expression, operands)
        self.consts = {}
        self._seen = {}
        self._names = itertools.count()

    def name(self):
        return f"v{next(self._names)}"

    def emit(self, template, *operands):
        expr = template.format(*operands)
        target = self._seen.get(expr)  # the same expression twice gives the same bits
        if target is None:
            target = self._seen[expr] = self.name()
            self.lines.append((target, expr, operands))
        return target

    def const(self, c):
        """Code for a constant operand, with its exact value and type."""
        if type(c) is int or (type(c) is float and np.isfinite(c)):
            code = repr(c)
            return f"({code})" if code.startswith("-") else code
        if isinstance(c, (int, float, np.integer, np.floating)) and not isinstance(c, bool):
            code = f"k{len(self.consts)}"
            self.consts[code] = c
            return code
        raise TraceError(f"cannot trace an operand of type {type(c).__name__}")

    # tangent arithmetic; dropping a None term or a factor 1.0 is exact
    def mul(self, a, b):
        if a is None or b is None:
            return None
        if a == _ONE:
            return b
        if b == _ONE:
            return a
        return self.emit("{} * {}", a, b)

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

    def neg(self, a):
        return None if a is None else self.emit("-{}", a)

    def divide(self, xv, xd, yv, yd):
        """The quotient x/y as :class:`Dual` forms it, for dual or plain operands."""
        if yd is None:
            v = self.emit("{} / {}", xv, yv)
            if xd is None:
                return _Trace(self, v)
            return _Trace(self, v, tuple(None if a is None else self.emit("{} / {}", a, yv)
                                         for a in xd))
        inv = self.emit("1.0 / {}", yv)
        v = self.emit("{} * {}", xv, inv)
        if xd is None:  # Dual.__rtruediv__
            w = self.emit("-{} * {}", v, inv)
            return _Trace(self, v, tuple(self.mul(w, b) for b in yd))
        d = []
        for a, b in zip(xd, yd):
            if b is None:
                d.append(self.mul(a, inv))
            elif a is None:
                d.append(self.emit("-{} * {}", self.mul(v, b), inv))
            else:
                d.append(self.emit("{} * {}", self.emit("{} - {}", a, self.mul(v, b)), inv))
        return _Trace(self, v, tuple(d))


class _Trace:
    """A value recorded on a tape: code ``v`` and, when it depends on a seeded
    coordinate, its tangent ``d`` (one code per seeded direction)."""

    __slots__ = ("tape", "v", "d")
    __array_ufunc__ = None  # numpy defers its operators to ours; its ufuncs raise

    def __init__(self, tape, v, d=None):
        self.tape = tape
        self.v = v
        self.d = d

    def _operand(self, other):
        if isinstance(other, _Trace):
            if other.tape is not self.tape:
                raise TraceError("operands from two different traces")
            return other.v, other.d
        return self.tape.const(other), None

    def __add__(self, other):
        if isinstance(other, Dual):  # Dual's reflected operator records the operation
            return NotImplemented
        yv, yd = self._operand(other)
        tape = self.tape
        v = tape.emit("{} + {}", self.v, yv)
        if self.d is None or yd is None:
            return _Trace(tape, v, yd if self.d is None else self.d)
        return _Trace(tape, v, tuple(tape.add(a, b) for a, b in zip(self.d, yd)))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return NotImplemented
        yv, yd = self._operand(other)
        tape = self.tape
        v = tape.emit("{} - {}", self.v, yv)
        if yd is None:
            return _Trace(tape, v, self.d)
        if self.d is None:
            return _Trace(tape, v, tuple(tape.neg(b) for b in yd))
        return _Trace(tape, v, tuple(tape.sub(a, b) for a, b in zip(self.d, yd)))

    def __rsub__(self, other):
        tape = self.tape
        v = tape.emit("{} - {}", tape.const(other), self.v)
        return _Trace(tape, v, None if self.d is None else tuple(tape.neg(a) for a in self.d))

    def __mul__(self, other):
        if isinstance(other, Dual):
            return NotImplemented
        yv, yd = self._operand(other)
        if yv == _ONE:  # x·1.0 and its tangent x'·1.0 are x and x' exactly
            return self
        tape = self.tape
        v = tape.emit("{} * {}", self.v, yv)
        if yd is None:
            d = None if self.d is None else tuple(tape.mul(a, yv) for a in self.d)
        elif self.d is None:
            d = tuple(tape.mul(self.v, b) for b in yd)
        else:
            d = tuple(tape.add(tape.mul(self.v, b), tape.mul(a, yv))
                      for a, b in zip(self.d, yd))
        return _Trace(tape, v, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            return NotImplemented
        yv, yd = self._operand(other)
        if yv == _ONE:  # x/1.0 and x'/1.0 are x and x' exactly
            return self
        return self.tape.divide(self.v, self.d, yv, yd)

    def __rtruediv__(self, other):
        return self.tape.divide(self.tape.const(other), None, self.v, self.d)

    def __pow__(self, n):
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise TraceError("only integer powers are traced")
        tape = self.tape
        v = tape.emit("{} ** {}", self.v, tape.const(n))
        if self.d is None:
            return _Trace(tape, v)
        if n == 0:
            return _Trace(tape, v, tuple(tape.mul(a, "0.0") for a in self.d))
        slope = tape.emit("{} * {} ** {}", tape.const(n), self.v, tape.const(n - 1))
        return _Trace(tape, v, tuple(tape.mul(slope, a) for a in self.d))

    def __neg__(self):
        tape = self.tape
        v = tape.emit("-{}", self.v)
        return _Trace(tape, v, None if self.d is None else tuple(tape.neg(a) for a in self.d))

    def __pos__(self):
        return self

    def _chain(self, result, factor=None, divisor=None):
        """Trace of ``result``, whose tangent is this tangent times the code
        ``factor`` or over ``divisor`` (left unused, and so dropped, when
        this value is not dual)."""
        tape = self.tape
        if self.d is None:
            return _Trace(tape, result)
        if factor is not None:
            return _Trace(tape, result, tuple(tape.mul(factor, a) for a in self.d))
        return _Trace(tape, result, tuple(None if a is None else tape.emit("{} / {}", a, divisor)
                                          for a in self.d))

    def sin(self):
        tape = self.tape
        return self._chain(tape.emit("sin({})", self.v), factor=tape.emit("cos({})", self.v))

    def cos(self):
        tape = self.tape
        return self._chain(tape.emit("cos({})", self.v), factor=tape.emit("-sin({})", self.v))

    def sqrt(self):
        tape = self.tape
        root = tape.emit("sqrt({})", self.v)
        return self._chain(root, divisor=tape.emit("2.0 * {}", root))

    def exp(self):
        e = self.tape.emit("exp({})", self.v)
        return self._chain(e, factor=e)

    def log(self):
        return self._chain(self.tape.emit("log({})", self.v), divisor=self.v)

    def _refuse(self, *args, **kwargs):
        raise TraceError("the oracle branches on, or converts, a traced value")

    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = _refuse
    __bool__ = __abs__ = __float__ = __int__ = __index__ = __array__ = _refuse
    __hash__ = None


def _blocks(items, blocks):
    """``items`` cut into consecutive lists of the given lengths."""
    out, start = [], 0
    for size in blocks:
        out.append(list(items[start:start + size]))
        start += size
    return out


def _record(f, blocks, tangents):
    """(tape, argument names, output) of ``f`` run once on tracer coordinates
    carrying ``tangents``; :class:`TraceError` if ``f`` cannot be recorded."""
    tape = _Tape()
    args = [tape.name() for _ in range(sum(blocks))]
    coords = [_Trace(tape, a, d) for a, d in zip(args, tangents)]
    try:
        out = f(*_blocks(coords, blocks))
    except Exception as exc:  # whatever stops the trace, the Dual path reproduces
        raise TraceError(f"cannot trace {getattr(f, '__qualname__', f)!r}: {exc}") from exc
    return tape, args, out


def _codes(tape, out, n):
    """(value code, ``n`` tangent codes) of one recorded output."""
    if isinstance(out, _Trace) and out.tape is tape:
        return out.v, ["0.0" if a is None else a for a in (out.d or (None,) * n)]
    return tape.const(out), ["0.0"] * n  # a constant has zero tangents; anything else raises


def _compile(tape, params, outputs, name, guard=None):
    """``def name(*params): return (*outputs,)`` from the tape, dead code left
    out; with a ``guard``, ``return guard, (*outputs,)``."""
    needed, body = set(outputs) | {guard} - {None}, []
    for target, expr, operands in reversed(tape.lines):
        if target in needed:  # dead code (e.g. f's own value) is left out
            body.append(f"    {target} = {expr}\n")
            needed.update(operands)
    result = f"({', '.join(outputs)},)"
    if guard is not None:
        result = f"{guard}, {result}"
    source = (f"def {name}({', '.join(params)}):\n" + "".join(reversed(body))
              + f"    return {result}\n")
    namespace = dict(_FUNCTIONS, **tape.consts)
    exec(compile(source, f"<traced {name}>", "exec"), namespace)
    fn = namespace[name]
    fn.source = source
    return fn


def trace_gradient(f, blocks, seeded):
    """Compiled gradient of ``f`` along the flat coordinates ``seeded``.

    ``f`` takes one list of kernel scalars per entry of ``blocks`` (the list
    lengths), like the ``(fast, slow)`` oracles of a system. The returned
    function takes the flat coordinates as positional floats or arrays and
    returns the partials along ``seeded`` as a tuple, equal bit for bit to a
    multidual pass (module docstring). Raises :class:`TraceError` when ``f``
    uses an operation the tracer does not know.
    """
    seeded = list(seeded)
    tangents = [None] * sum(blocks)
    for j, i in enumerate(seeded):
        tangents[i] = tuple(_ONE if jj == j else None for jj in range(len(seeded)))
    tape, args, out = _record(f, blocks, tangents)
    return _compile(tape, args, _codes(tape, out, len(seeded))[1], "gradient")


def trace_tangent(f, blocks, directions):
    """Compiled values and directional derivatives of ``f``'s outputs.

    ``f`` takes one list of kernel scalars per entry of ``blocks``, returns a
    list of outputs, and may take :class:`Dual` passes of its own. The
    returned function takes the flat coordinates, then ``directions`` tangent
    components per coordinate. The first output is a value to check, not a
    result (the numeric-orbit field's ω): the function returns its value, then
    one tuple of the other outputs' values and their ``directions`` tangent
    components each. Raises :class:`TraceError` like :func:`trace_gradient`.
    """
    dots = [tuple(f"t{i}_{d}" for d in range(directions)) for i in range(sum(blocks))]
    # no directions: plain values, not duals, so that x/y is traced as x/y
    tape, args, out = _record(f, blocks, [d or None for d in dots])
    guard, *results = [_codes(tape, o, directions) for o in out]
    return _compile(tape, args + [t for d in dots for t in d],
                    [v for v, _ in results] + [t for _, d in results for t in d], "tangent",
                    guard[0])


def _multidual_gradient(f, blocks, seeded):
    """The same partials from one multidual evaluation of ``f`` per call."""
    seeded = list(seeded)
    n = len(seeded)

    def grad(*coords):
        tag = fresh_tag()
        # one direction axis in front of the coordinates' own axes
        basis = np.eye(n).reshape((n, n) + (1,) * max(np.ndim(c) for c in coords))
        coords = list(coords)
        for j, i in enumerate(seeded):
            coords[i] = Dual(coords[i], basis[j], tag)
        out = f(*_blocks(coords, blocks))
        if isinstance(out, Dual) and out.tag == tag:
            return tuple(out.eps)
        return (0.0,) * n

    return grad


def _multidual_tangent(f, blocks, directions):
    """The same values and tangents from one multidual evaluation of ``f`` per call."""
    n = sum(blocks)

    def tangent(*args):
        tag = fresh_tag()  # direction axis first; no directions: plain values
        coords = [Dual(c, np.reshape(args[n + i * directions:n + (i + 1) * directions],
                                     (directions,) + np.shape(c)), tag) if directions else c
                  for i, c in enumerate(args[:n])]
        guard, *results = [o if isinstance(o, Dual) and o.tag == tag
                           else Dual(o, np.zeros(directions), tag)
                           for o in f(*_blocks(coords, blocks))]
        return guard.val, (tuple(o.val for o in results)
                           + tuple(e for o in results for e in o.eps))

    return tangent


def tangent(f, blocks, directions):
    """The first output's value and the other outputs' values and tangents as
    a function of the coordinates and their tangents: :func:`trace_tangent`,
    or, when ``f`` cannot be traced, one multidual evaluation of ``f`` per
    call with the same results.
    """
    try:
        return trace_tangent(f, blocks, directions)
    except TraceError:
        return _multidual_tangent(f, blocks, directions)


def gradient(f, blocks, seeded):
    """Partials of ``f`` along ``seeded`` as a function of the flat coordinates.

    Same arguments and returned function as :func:`trace_gradient`. When
    ``f`` cannot be traced, the function evaluates ``f`` once on multiduals
    per call instead, with the same results.
    """
    try:
        return trace_gradient(f, blocks, seeded)
    except TraceError:
        return _multidual_gradient(f, blocks, seeded)

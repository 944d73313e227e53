"""Command-line interface: single character values, full tables in three
output formats, spin bitrace values, and self-verification suites.

Set HCCHAR_CACHE to a writable directory to persist the tables that
``table`` computes as JSON; ``char`` always computes its value and never
reads the cache.  Entries are cross-checked against the Pieri recursion
(a Pieri table against the strip-weight recursion) before being written
and stored atomically, as a SHA-256 digest line followed by the body.  A
file whose digest, schema, cell set or any cell fails its check is ignored
with one warning line on stderr, and the table is recomputed.  A cache
that cannot be written is an I/O error (exit status 4); a cross-check that
finds the two methods disagreeing names the first differing cell, writes
nothing and fails (exit status 1).

``table`` streams.  Each output format is a generator of text chunks over
the values in table order; without a cache, each value is rendered as it
is computed and no table is held.  The chunks go to a temporary file
first: for ``--out``, one in the target's directory that replaces the
target after the last chunk; for stdout, an anonymous one that is then
copied out.  So a failure before the last cell leaves stdout empty, and
no ``--out`` or cache file is created or replaced.  A cache miss renders
its JSON once, into the cache file, hashing the chunks as they are
written: the digest line, of fixed length, goes first as a placeholder and
is filled in last, before the rename.  A JSON ``table`` then copies that
file's body out.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import stat
import sys
import tempfile
from fractions import Fraction
from itertools import islice

from . import bitrace, characters, golden
from .partitions import (
    Parts,
    format_parts,
    nonzero_length,
    odd_partitions_of,
    parse_parts,
    strict_partitions_of,
    z_lambda,
)
from .qpoly import NonDivisibleError, QPoly

CACHE_ENV = "HCCHAR_CACHE"
CACHE_VERSION = 1
COPY_BLOCK = 1 << 16  # characters per read when copying a finished rendering

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_IO = 4


class MethodDisagreementError(Exception):
    """Two methods computed different values for one table cell."""


# ---------------------------------------------------------------------------
# table cache

def _cache_path(n: int) -> str | None:
    root = os.environ.get(CACHE_ENV)
    if not root:
        return None
    return os.path.join(root, f"chartable_n{n}.json")


def _sha256(data: bytes = b""):
    # imported here because hashlib loads OpenSSL, about 3.7 MB of resident
    # memory that runs without a cache should not pay for
    import hashlib

    return hashlib.sha256(data)


def _checked_cell(n: int, lam: Parts, mu: Parts, raw) -> QPoly:
    """A cached cell as a ``QPoly``: integer coefficients, palindromic,
    degree at most n - l(mu), and equal to the one-row or one-column
    closed form where one applies; a ``ValueError`` otherwise."""
    try:
        value = QPoly.from_json(raw)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{_cell(lam, mu)}: does not convert ({exc!r})") from exc
    bound = n - nonzero_length(mu)
    if not (value.has_integer_coeffs() and value.is_palindromic() and value.degree <= bound):
        raise ValueError(
            f"{_cell(lam, mu)}: value {value.to_text()} is not an integer "
            f"palindromic polynomial of degree at most {bound}"
        )
    if lam == (n,):
        form, expected = "one-row", characters.char_one_row(mu)
    elif mu == (1,) * n:
        form, expected = "one-column", characters.char_column(lam)
    else:
        return value
    if value != expected:
        raise ValueError(
            f"{_cell(lam, mu)}: value {value.to_text()}, {form} form gives {expected.to_text()}"
        )
    return value


def load_cached_table(n: int) -> dict[tuple[Parts, Parts], QPoly] | None:
    """Every (lambda, mu) cell of the cached table of weight n, each converted
    and checked, once the digest, schema and cell-set checks pass.  None on a
    miss or when the file or any cell is rejected, with one warning line on
    stderr."""
    path = _cache_path(n)
    if path is None or not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as handle:
            head, _, body = handle.read().partition(b"\n")
        if _sha256(body).hexdigest().encode() != head:
            raise ValueError(
                "content digest mismatch" if len(head) == 64 else "no content digest line"
            )
        try:
            payload = json.loads(body)
        except RecursionError:  # nested deeper than the decoder recurses
            raise ValueError("undecodable JSON body") from None
        schema = (payload.get("version"), payload.get("n")) if isinstance(payload, dict) else None
        if schema != (CACHE_VERSION, n):
            raise ValueError("cache schema mismatch")
        raw = payload.get("cells")
        try:
            index = {(tuple(cell["lambda"]), tuple(cell["mu"])): cell["poly"] for cell in raw}
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed cell list ({exc!r})") from exc
        if len(index) != len(raw) or index.keys() != set(characters.table_cells(n)):
            raise ValueError("cache cell set mismatch")
        return {key: _checked_cell(n, *key, poly) for key, poly in index.items()}
    except (OSError, ValueError) as exc:  # unreadable, undecodable or failing a check
        print(f"warning: ignoring cache file {path}: {exc}", file=sys.stderr)
        return None


def store_cached_table(n: int, table: dict[tuple[Parts, Parts], QPoly]) -> str | None:
    """Write the JSON rendering of the table to the cache, atomically, and
    return the path written; None when no cache is set.  The body is
    rendered once, straight into a temporary file and hashed chunk by chunk;
    its digest line, of fixed length, is written first as a placeholder and
    filled in once the last chunk is hashed, and only then is the file
    renamed into place."""
    path = _cache_path(n)
    if path is None:
        return None
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".chartable", dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(b"0" * 64 + b"\n")  # the digest line, filled in last
            digest = _sha256()
            for chunk in table_json_chunks(n, _in_table_order(n, table)):
                body = chunk.encode()
                digest.update(body)
                handle.write(body)
            handle.seek(0)
            handle.write(digest.hexdigest().encode())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def table_with_cache(
    n: int, method: str = "auto"
) -> tuple[dict[tuple[Parts, Parts], QPoly], str | None]:
    """The weight-n table, and the path of the cache file when a miss
    stored one (None otherwise), whose body the caller can copy instead of
    rendering the JSON again."""
    cached = load_cached_table(n)
    if cached is not None:
        return cached, None
    table = characters.char_table(n, method=method)
    if _cache_path(n) is not None:
        # cached values must agree with a second method that shares no peel
        # with the first: Pieri, or for a Pieri table the strip weights
        check_method = "combinatorial" if method == "pieri" else "pieri"
        check = characters.char_table(n, method=check_method)
        for cell, value in table.items():
            if failure := _disagreement(_cell(*cell), {method: value, check_method: check[cell]}):
                raise MethodDisagreementError(f"methods disagree while caching n={n} at {failure}")
        return table, store_cached_table(n, table)
    return table, None


def _cached_body(path: str):
    # the body of a cache file, after its digest line, in blocks
    with open(path, encoding="utf-8", newline="") as handle:
        handle.readline()
        yield from iter(functools.partial(handle.read, COPY_BLOCK), "")


# ---------------------------------------------------------------------------
# table rendering: each format is a generator of text chunks, one per cell
# (JSON) or per row (CSV, LaTeX), over the values in table_cells order, so
# that no caller need hold the rendered table

def _in_table_order(n: int, table):
    # the values of a table keyed by cell, in table_cells order
    return map(table.__getitem__, characters.table_cells(n))


def table_json_chunks(n: int, values):
    """The JSON rendering, byte for byte what json.dumps gives for
    {"n": n, "cells": [{"lambda": ..., "mu": ..., "poly": value.to_json()},
    ...], "version": CACHE_VERSION}, formatted directly, one chunk per
    cell."""
    parts = {p: ", ".join(map(str, p)) for p in (*strict_partitions_of(n), *odd_partitions_of(n))}
    yield f'{{"n": {n}, "cells": ['
    sep = ""
    for (lam, mu), value in zip(characters.table_cells(n), values):
        coeffs = ", ".join([f"[{c.numerator}, {c.denominator}]" for c in value.coeffs])
        yield (
            f'{sep}{{"lambda": [{parts[lam]}], "mu": [{parts[mu]}], '
            f'"poly": {{"var": "q", "coeffs": [{coeffs}]}}}}'
        )
        sep = ", "
    yield f'], "version": {CACHE_VERSION}}}'


def table_csv_chunks(n: int, values):
    """The CSV rendering: a header row of the lambdas, then one row per mu,
    every field quoted."""
    lams = strict_partitions_of(n)
    yield "mu\\lambda" + "".join(f',"{format_parts(lam)}"' for lam in lams) + "\n"
    values = iter(values)
    for mu in odd_partitions_of(n):
        row = "".join(f',"{value.to_text()}"' for value in islice(values, len(lams)))
        yield f'"{format_parts(mu)}"{row}\n'


def table_latex_chunks(n: int, values):
    """The LaTeX rendering: a tabular with a ruled header row of the
    lambdas, then one ruled row per mu."""
    lams = strict_partitions_of(n)
    header = "".join(" & $(" + ",".join(map(str, lam)) + ")$" for lam in lams)
    yield (
        "\\begin{tabular}{|" + "c|" * (len(lams) + 1) + "}\n\\hline\n"
        "$\\mu\\backslash\\lambda$" + header + " \\\\\n\\hline\n"
    )
    values = iter(values)
    for mu in odd_partitions_of(n):
        row = "".join(f" & ${value.to_text()}$" for value in islice(values, len(lams)))
        yield "$(" + ",".join(map(str, mu)) + ")$" + row + " \\\\\n\\hline\n"
    yield "\\end{tabular}\n"


TABLE_CHUNKS = {
    "json": table_json_chunks,
    "csv": table_csv_chunks,
    "latex": table_latex_chunks,
}


def render_table_json(n: int, table) -> str:
    """The JSON rendering of a table keyed by cell, as one string."""
    return "".join(table_json_chunks(n, _in_table_order(n, table)))


def render_table_csv(n: int, table) -> str:
    """The CSV rendering of a table keyed by cell, as one string."""
    return "".join(table_csv_chunks(n, _in_table_order(n, table)))


def render_table_latex(n: int, table) -> str:
    """The LaTeX rendering of a table keyed by cell, as one string."""
    return "".join(table_latex_chunks(n, _in_table_order(n, table)))


def _file_mode(path: str) -> int:
    # the permission bits of path, or for a new file those that open() gives
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _write_table(chunks, out: str | None) -> None:
    """Write the chunks to the file out, or to stdout for None, once the
    last one is rendered.  They stream into a temporary file first: for a
    regular (or new) out, one in its directory that then replaces it;
    otherwise an anonymous one that is then copied out.  So a failure
    part-way, in a cell or in the write, leaves stdout empty and out as it
    was."""
    if out is not None and (os.path.isfile(out) or not os.path.exists(out)):
        target = os.path.realpath(out)  # through a symlink, as open() writes
        try:
            fd, tmp = tempfile.mkstemp(prefix=".hcchar", dir=os.path.dirname(target))
        except OSError as exc:  # named by the target, not the temporary file
            raise OSError(exc.errno, exc.strerror, out) from None
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.writelines(chunks)
            os.chmod(tmp, _file_mode(target))
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
        spool.writelines(chunks)
        spool.seek(0)
        sink = sys.stdout if out is None else open(out, "w", encoding="utf-8")
        try:
            # sys.stdout.write(str), since a captured stdout has no buffer
            shutil.copyfileobj(spool, sink, COPY_BLOCK)
        finally:
            if sink is not sys.stdout:
                sink.close()


# ---------------------------------------------------------------------------
# verification suites

# Each suite yields (description, failure) per check: failure is None when
# the check passes, else the first failing cell and every value compared.

def _cell(lam: Parts, mu: Parts) -> str:
    return f"lambda={format_parts(lam)}, mu={format_parts(mu)}"


def _disagreement(label: str, values: dict[str, QPoly]) -> str | None:
    """None when the named values are all equal, else the label and what
    each name gives, in the order of ``values``."""
    first, *rest = values.values()
    if all(value == first for value in rest):
        return None
    return f"{label}: " + ", ".join(
        f"{name} gives {value.to_text()}" for name, value in values.items()
    )


def _table_differences(computed: dict, expected: dict):
    for cell in [*computed, *(cell for cell in expected if cell not in computed)]:
        if computed.get(cell) != expected.get(cell):
            mine, published = (
                table[cell].to_text() if cell in table else "nothing"
                for table in (computed, expected)
            )
            yield f"{_cell(*cell)}: computed {mine}, published {published}"


def _suite_tables(n_max: int):
    for n in range(3, min(n_max, 7) + 1):
        computed = characters.char_table(n, method="auto")
        expected = golden.golden_table(n)
        failure = next(_table_differences(computed, expected), None)
        yield f"table n={n} matches the published table ({len(expected)} cells)", failure


def _method_disagreements(n: int):
    for lam, mu in characters.table_cells(n):
        values = {name: fn(lam, mu) for name, fn in characters.METHODS.items()}
        if failure := _disagreement(_cell(lam, mu), values):
            yield failure


def _closed_form_disagreements(n: int):
    def closed_forms():
        for mu in odd_partitions_of(n):
            yield "one-row", (n,), mu, characters.char_one_row(mu)
            for k in range(n // 2 + 1, n):
                yield "two-row", (k, n - k), mu, characters.char_two_row(k, mu)
        for lam in strict_partitions_of(n):
            yield "one-column", lam, (1,) * n, characters.char_column(lam)
            for k in range(1, n + 1, 2):
                yield "hook", lam, (k,) + (1,) * (n - k), characters.char_hook_mu(lam, k)

    for form, lam, mu, value in closed_forms():
        values = {f"{form} form": value, "combinatorial": characters.char_combinatorial(lam, mu)}
        if form == "hook":
            # the hook form reads the combinatorial route's own first
            # lowering steps, the strip weights reduced by q - 1 per shape
            # (characters._gds_steps), so a wrong strip weight or reduction
            # there cancels out of the pairing above; the Pieri route reads
            # no strip weight and divides its own G
            values["pieri"] = characters.char_pieri(lam, mu)
        if failure := _disagreement(_cell(lam, mu), values):
            yield failure


def _suite_cross(n_max: int):
    for n in range(1, n_max + 1):
        yield f"five-way method agreement, n={n}", next(_method_disagreements(n), None)
        failure = next(_closed_form_disagreements(n), None)
        yield f"closed forms agree on their domains, n={n}", failure


def _symmetry_failures(n: int):
    for lam, mu in characters.table_cells(n):
        value = characters.char_value(lam, mu)
        bound = n - nonzero_length(mu)
        if not value.is_palindromic() or value.degree > bound:
            yield f"{_cell(lam, mu)}: value {value.to_text()}, degree bound {bound}"


def _suite_symmetry(n_max: int):
    for n in range(1, n_max + 1):
        failure = next(_symmetry_failures(n), None)
        yield f"palindromic coefficients and degree bound, n={n}", failure


def _ortho_failures(n: int):
    for mu in odd_partitions_of(n):
        for nu in odd_partitions_of(n):
            lhs = characters.orthogonality_sum(mu, nu)
            values = {
                "character pairing": lhs,
                "sbtr": bitrace.sbtr(mu, nu),
                "sbtr_powersum": bitrace.sbtr_powersum(mu, nu),
            }
            pair = f"mu={format_parts(mu)}, nu={format_parts(nu)}"
            if failure := _disagreement(pair, values):
                yield failure
            expected = 2 ** nonzero_length(mu) * z_lambda(mu) if mu == nu else 0
            if lhs.eval_at(1) != expected:
                yield f"{pair}: {lhs.eval_at(1)} at q=1, expected {expected}"
        regular, column = bitrace.regular_char(mu), bitrace.sbtr(mu, (1,) * n)
        if regular != column:
            yield (
                f"mu={format_parts(mu)}: regular character {regular.to_text()}, "
                f"sbtr against 1^{n} gives {column.to_text()}"
            )


def _suite_ortho(n_max: int):
    for n in range(1, n_max + 1):
        failure = next(_ortho_failures(n), None)
        yield f"bitrace orthogonality and regular character, n={n}", failure


VERIFY_SUITES = {
    "tables": _suite_tables,
    "cross": _suite_cross,
    "symmetry": _suite_symmetry,
    "ortho": _suite_ortho,
}


def run_verify(n_max: int, suite: str) -> int:
    names = list(VERIFY_SUITES) if suite == "all" else [suite]
    all_ok = True
    checked = 0
    for name in names:
        for description, failure in VERIFY_SUITES[name](n_max):
            if failure is None:
                print(f"PASS [{name}] {description}")
            else:
                print(f"FAIL [{name}] {description}: {failure}")
            all_ok = all_ok and failure is None
            checked += 1
    if not checked:
        raise ValueError(f"no verify check runs for --suite {suite} --n-max {n_max}")
    print("verify: " + ("all checks passed" if all_ok else "FAILURES detected"))
    return EXIT_OK if all_ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# subcommands

def _cmd_char(args) -> int:
    lam = parse_parts(args.lam)
    mu = parse_parts(args.mu)
    print(characters.char_value(lam, mu, args.method).to_text())
    return EXIT_OK


def _cmd_table(args) -> int:
    n, render = args.n, TABLE_CHUNKS[args.format]
    if _cache_path(n) is None:
        # no table is held: each value is rendered as it is computed
        chunks = render(n, characters.table_values(n, args.method))
    else:
        try:
            table, stored = table_with_cache(n, method=args.method)
        except OSError as exc:
            print(f"error: cannot write cache {_cache_path(n)}: {exc}", file=sys.stderr)
            return EXIT_IO
        except MethodDisagreementError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FAIL
        if args.format == "json" and stored is not None:
            chunks = _cached_body(stored)
        else:
            chunks = render(n, _in_table_order(n, table))
    try:
        _write_table(chunks, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out or 'stdout'}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _at_q(text: str) -> Fraction:
    # Fraction spends minutes on a decimal exponent far past the 4300 digits
    # CPython allows in an int <-> str conversion, so those are refused first
    _, e, exponent = text.lower().rpartition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if e and digits.isdecimal() and (len(digits) > 4 or int(digits) > 4300):
        raise ValueError("--at-q decimal exponent exceeds 4300 in magnitude")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError("--at-q must be a rational number of at most 4300 digits") from None


def _cmd_sbtr(args) -> int:
    # bad --at-q text is refused before the bitrace is computed
    at_q = None if args.at_q is None else _at_q(args.at_q)
    value = bitrace.sbtr(parse_parts(args.mu), parse_parts(args.nu))
    try:
        print(value.to_text() if at_q is None else value.eval_at(at_q))
    except ValueError:  # CPython's 4300-digit limit on int-to-text conversion
        raise ValueError("--at-q gives a value of more than 4300 digits") from None
    return EXIT_OK


def _cmd_verify(args) -> int:
    return run_verify(args.n_max, args.suite)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcchar",
        description="Exact Hecke-Clifford character values and spin bitraces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    method_choices = ["auto", *characters.METHODS]

    p_char = sub.add_parser("char", help="one character value")
    p_char.add_argument("--lambda", dest="lam", required=True, help="strict partition, e.g. 4,2")
    p_char.add_argument("--mu", required=True, help="partition, e.g. 3,3")
    p_char.add_argument("--method", default="auto", choices=method_choices)
    p_char.set_defaults(func=_cmd_char)

    p_table = sub.add_parser("table", help="full character table for weight n")
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--format", default="json", choices=["json", "csv", "latex"])
    p_table.add_argument("--out", default=None, help="output path (default stdout)")
    p_table.add_argument("--method", default="auto", choices=method_choices)
    p_table.set_defaults(func=_cmd_table)

    p_sbtr = sub.add_parser("sbtr", help="spin bitrace of two classes")
    p_sbtr.add_argument("--mu", required=True)
    p_sbtr.add_argument("--nu", required=True)
    p_sbtr.add_argument("--at-q", dest="at_q", default=None, help="evaluate at a rational q")
    p_sbtr.set_defaults(func=_cmd_sbtr)

    p_verify = sub.add_parser("verify", help="run self-verification suites")
    p_verify.add_argument("--n-max", dest="n_max", type=int, default=7)
    p_verify.add_argument("--suite", default="all", choices=[*VERIFY_SUITES, "all"])
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NonDivisibleError, OverflowError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        limit = sys.getrecursionlimit()
        print(
            f"error: input nested deeper than the interpreter's recursion limit ({limit} frames)",
            file=sys.stderr,
        )
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The spin bitrace three ways, and what it degenerates to at q = 1.

For odd class types the bitrace is computed by the alpha-driven peeling
recursion, by pairing the products of deformed generators in the ring of
odd power sums, and by pairing character values; at q = 1 it collapses to
the diagonal orthogonality values, and against the all-ones class it yields
the regular character.
"""

from hcchar.bitrace import regular_char, sbtr, sbtr_powersum
from hcchar.characters import orthogonality_sum
from hcchar.partitions import format_parts, nonzero_length, odd_partitions_of, z_lambda

N = 5


def main() -> None:
    classes = odd_partitions_of(N)
    print(f"weight n = {N}, odd classes: {[format_parts(m) for m in classes]}")
    print()
    for mu in classes:
        for nu in classes:
            a = sbtr(mu, nu)
            b = sbtr_powersum(mu, nu)
            c = orthogonality_sum(mu, nu)
            assert a == b == c
            print(f"sbtr({format_parts(mu)} ; {format_parts(nu)}) = {a.to_text()}")
    print()
    print("at q = 1 the matrix is diagonal with entries 2^l(mu) * z_mu:")
    for mu in classes:
        row = [str(sbtr(mu, nu).eval_at(1)) for nu in classes]
        expected = 2 ** nonzero_length(mu) * z_lambda(mu)
        print(f"  {format_parts(mu):>10}: {row}  (diagonal expected {expected})")
    print()
    print("regular character against the all-ones class:")
    for mu in classes:
        value = regular_char(mu)
        assert value == sbtr(mu, (1,) * N)
        print(f"  reg({format_parts(mu)}) = {value.to_text()}")


if __name__ == "__main__":
    main()

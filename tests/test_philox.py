"""The random stream as a written spec: a pure-Python Philox4x64-10.

montecarlo's docstring states the stream layout: Philox key (seed, 0),
counter word 0 the block and word 1 the plane, and each double the top
53 bits of a word times 2**-53.  These tests hold uniforms to that
statement through a reference that shares no code with numpy, so a
change in numpy's Philox or in its conversion to doubles, which would
move every golden byte, is named here.

The last test holds every protocol row's sampled products to its
scalar trial on shares taken from the reference, scaled as the row
says.  The reference side shares no code with the sampler's
re-keying, buffers, chunking or kernels, so all of them are checked
together, from the stream down.

The block function is from Salmon, Moraes, Dror & Shaw, "Parallel random
numbers: as easy as 1, 2, 3" (SC'11, 2011), with its published
multipliers and Weyl constants; its known-answer vectors are Random123's.
"""

import math
import random

import numpy as np
import pytest

from bellcomm.montecarlo import child_seed, sample_products, uniforms
from bellcomm.protocols import CHUNK, PROTOCOLS, ProtocolSpec

MASK = (1 << 64) - 1
# the round multipliers and the Weyl constants that bump the key
M0, M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
W0, W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B


def philox4x64_10(counter, key):
    """The four 64-bit words of one block at a four-word counter and a
    two-word key: ten rounds, with the key bumped between rounds."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for r in range(10):
        if r:
            k0, k1 = (k0 + W0) & MASK, (k1 + W1) & MASK
        p0, p1 = M0 * c0, M1 * c2
        c0, c1 = (p1 >> 64) ^ c1 ^ k0, p1 & MASK
        c2, c3 = (p0 >> 64) ^ c3 ^ k1, p0 & MASK
    return c0, c1, c2, c3


def reference_uniforms(seed, plane, start, count):
    """The doubles of trials [start, start + count) on a plane, start a
    multiple of 4.  The counter starts at (start // 4, plane, 0, 0) and,
    as in numpy, is bumped before each block; the starts used here keep
    word 0 far from a carry into word 1."""
    out = []
    block = start // 4
    while len(out) < count:
        block += 1
        words = philox4x64_10((block, plane, 0, 0), (seed, 0))
        out.extend((w >> 11) * 2.0**-53 for w in words)
    return out[:count]


@pytest.mark.parametrize(
    "counter, key, words",
    [
        ((0, 0, 0, 0), (0, 0),
         (0x16554D9ECA36314C, 0xDB20FE9D672D0FDC,
          0xD7E772CEE186176B, 0x7E68B68AEC7BA23B)),
        ((MASK,) * 4, (MASK, MASK),
         (0x87B092C3013FE90B, 0x438C3C67BE8D0224,
          0x9CC7D7C69CD777B6, 0xA09CAEBF594F0BA0)),
        ((0x243F6A8885A308D3, 0x13198A2E03707344,
          0xA4093822299F31D0, 0x082EFA98EC4E6C89),
         (0x452821E638D01377, 0xBE5466CF34E90C6C),
         (0xA528F45403E61D95, 0x38C72DBD566E9788,
          0xA5A1610E72FD18B5, 0x57BD43B5E52B7FE6)),
    ],
)
def test_block_known_answers(counter, key, words):
    assert philox4x64_10(counter, key) == words


@pytest.mark.parametrize("plane", [0, 1])
@pytest.mark.parametrize("seed", [0, 1, 7, 2**63 + 5, 2**64 - 1])
def test_uniforms_equal_the_reference(seed, plane):
    # 257 doubles end inside a block; the starts reach past one chunk
    # and past 2**32 trials
    for start in (0, 4, 65536, 4_000_000_000):
        want = np.array(reference_uniforms(seed, plane, start, 257))
        assert np.array_equal(uniforms(seed, plane, start, 257), want), start


def test_child_seeds_pinned():
    # child_seed is numpy's SeedSequence; these literals name any change
    assert child_seed(0, 0) == 15793235383387715774
    assert child_seed(7, 3) == 5061563556724077661
    assert child_seed(2**64 - 1, 60) == 4287627114477583238


# one spec per row, with the row's parameter if it has one
PARAMS = {None: {}, "delta": {"delta": math.pi / 5}, "k_bits": {"k_bits": 3}}
SPECS = [ProtocolSpec(kind, **PARAMS[row.param]) for kind, row in PROTOCOLS.items()]


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind.value)
@pytest.mark.parametrize("a, b, seed", [(0.3, 1.9, 1), (5.1, 2.2, 2**64 - 1)])
def test_sampled_products_equal_scalar_trials_on_reference_shares(spec, a, b, seed):
    # three chunks, the last one short; indices at each chunk edge and a
    # few hundred spread over all three
    n = 2 * CHUNK + 1000
    edges = [0, CHUNK - 1, CHUNK, 2 * CHUNK, n - 1]
    indices = edges + random.Random(seed).sample(range(n), 300)
    row = PROTOCOLS[spec.kind]
    got = sample_products(spec, a, b, n, seed)
    for i in indices:
        shares = []
        for plane, scale in enumerate(row.planes):
            u = reference_uniforms(seed, plane, i - i % 4, i % 4 + 1)[-1]
            shares.append(u if scale is None else u * scale)
        # adaptive draws no plane; its product does not read the share
        shares += [0.0] * (len(row.trial_flags) - len(shares))
        assert got[i] == row.trial(spec, a, b, *shares).product, i

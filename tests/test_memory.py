"""Peak memory of the chunked kernels, measured with tracemalloc."""

import json
import tracemalloc

import numpy as np

from addesigns import chunks, cli, geometry, gf
from addesigns.additivity import (
    Embedding,
    ag_identity_embedding,
    cyclic_embedding,
    pg_strong_embedding,
)
from addesigns.designs import Design, develop, paley_diffset, singer_diffset, validate_2design

MiB = 2 ** 20


def peak_bytes(f):
    """The most bytes f() holds at once above what was held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        f()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_rows_per_chunk_reads_the_budget_at_call_time(monkeypatch):
    assert chunks.rows_per_chunk(1000) == chunks.BUDGET // 1000
    assert chunks.rows_per_chunk(10 * chunks.BUDGET) == 1
    monkeypatch.setattr(chunks, "BUDGET", 5000)
    assert chunks.rows_per_chunk(1000) == 5


def test_validate_2design_singer32_peaks_below_3_mib():
    # 10.1 MiB with pair counts sized at 2^18 entries per range
    ds = singer_diffset(2, 32)
    design = Design(ds.v, (np.array(ds.elems) + np.arange(ds.v)[:, None]) % ds.v)
    assert peak_bytes(lambda: validate_2design(design)) < 3 * MiB
    assert design.lam == 1


def test_gf_2_15_table_build_peaks_below_2_mib():
    # 3.2 MiB when the field kept its exp and log tables as Python lists
    # (about 2.5 MiB of it); 1.0 MiB with the two int64 arrays.  The tables
    # are built on first read, so the build is the read of _log.
    poly = gf.make_field(2, 15).prim_poly
    assert peak_bytes(lambda: gf.FieldSpec(2, 15, poly)._log) < 2 * MiB


def test_singer32_set_peaks_below_0_5_mib():
    # 1.04 MiB when the set was read from the exp and log tables of GF(2^15)
    assert peak_bytes(lambda: singer_diffset(2, 32)) < 0.5 * MiB


def test_singer32_cyclic_embedding_peaks_below_0_5_mib():
    # 1.04 MiB when the 1057 powers of g were read from the exp table
    ds = singer_diffset(2, 32)
    assert peak_bytes(lambda: cyclic_embedding(ds, 2)) < 0.5 * MiB


def test_singer32_development_peaks_below_0_8_mib():
    # 1.00 MiB when the blocks were built and kept in int64
    ds = singer_diffset(2, 32)
    made = []
    assert peak_bytes(lambda: made.append(develop(ds))) < 0.8 * MiB
    assert made[0].lam == 1 and made[0].blocks.dtype == np.uint16


def test_paley2003_development_peaks_below_5_mib():
    # 36.6 MiB when validate_2design counted its pairs; 9.6 MiB, 5 bytes an
    # entry, when the blocks were built in the sums' dtype, copied to the
    # design and repeat-checked at once; now one array of 2-byte points
    ds = paley_diffset(2003)
    made = []
    assert peak_bytes(lambda: made.append(develop(ds))) < min(5 * MiB, 2.5 * ds.v * ds.k)
    assert (made[0].k, made[0].lam) == (1001, 500)


def test_enumerate_subspaces_4_7_1_peaks_below_6_mib():
    # the 1.3 MiB of bases of the lines of PG(4,7); 12.8 MiB when gf.digits
    # expanded the free entries through (codes, digits) int64 temporaries
    bases = []
    assert peak_bytes(lambda: bases.append(geometry.enumerate_subspaces(4, 7, 1))) < 6 * MiB
    assert bases[0].shape == (geometry.gaussian(5, 2, 7), 2, 5)


def test_writing_the_pg441_embedding_peaks_below_0_4_mib(tmp_path):
    # 0.98 MiB when to_dict() made the 341 x 341 image a list of lists and
    # json.dump encoded it in pure Python
    emb = pg_strong_embedding(4, 4, 1)
    out = tmp_path / "emb.json"
    assert peak_bytes(lambda: cli._emit(emb.to_dict(), str(out))) < 0.4 * MiB
    assert json.loads(out.read_text())["image"] == emb.image.tolist()


def test_reading_the_pg441_embedding_peaks_below_1_2_mib():
    # 1.89 MiB with a flat list of the entries, their int64 copy and a
    # second int64 array of remainders
    doc = json.loads(json.dumps(pg_strong_embedding(4, 4, 1).to_dict(),
                                default=lambda a: a.tolist()))
    embs = []
    assert peak_bytes(lambda: embs.append(Embedding.from_dict(doc))) < 1.2 * MiB
    assert embs[0].image.tolist() == doc["image"]


def test_reading_an_unreduced_list_image_peaks_below_1_2_mib():
    # 1.78 MiB when the list was copied to int64 and that array cast to a
    # second 64-bit array before it was reduced
    emb = pg_strong_embedding(4, 4, 1)
    image = (emb.image.astype(np.int64) - 1).tolist()
    embs = []
    assert peak_bytes(lambda: embs.append(Embedding(emb.m, image, "test"))) < 1.2 * MiB
    assert embs[0].image.tolist() == np.mod(image, emb.m).tolist()


def test_reading_the_pg441_design_peaks_below_1_mib(tmp_path):
    # 1.51 MiB when json.load made every block a list of Python ints, which
    # from_dict checked and copied to int64
    path = tmp_path / "pg.json"
    cli._emit(geometry.pg_design(4, 4, 1).to_dict(), str(path))
    read = []
    assert peak_bytes(lambda: read.append(Design.from_dict(cli._load(str(path))))) < 1.0 * MiB
    assert read[0].lam == 1 and read[0].blocks.tolist() == json.loads(path.read_text())["blocks"]


def test_pg441_strong_embedding_peaks_below_0_7_mib():
    # 1.17 MiB when Embedding widened the uint8 complement matrix to int64
    assert peak_bytes(lambda: pg_strong_embedding(4, 4, 1)) < 0.7 * MiB


def test_ag_identity_embedding_peaks_below_48_bytes_a_point():
    # 80 bytes a point when Embedding widened the uint8 digits to int64
    assert peak_bytes(lambda: ag_identity_embedding(8, 5)) < 48 * 5 ** 8

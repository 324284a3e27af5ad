"""§2.1 quantified: recovery speed and code structure vs durability."""

from paper_report import emit, run

from repro.experiments import durability, tradeoff


def test_durability(benchmark):
    results = benchmark.pedantic(
        lambda: run(durability.scenarios(n_objects=2500)),
        rounds=1, iterations=1)
    emit("Durability (MTTDL from measured recovery times, 2% AFR)",
         durability.render(results))
    rows = durability.from_tradeoff(tradeoff.from_results(results))
    by_scheme = {r.scheme: r for r in rows}
    # Faster recovery -> higher MTTDL at equal fault tolerance.
    assert by_scheme["Geo-4M"].mttdl_hours > by_scheme["RS"].mttdl_hours
    # LRC's non-MDS patterns cost orders of magnitude of MTTDL.
    assert by_scheme["LRC"].mttdl_hours < 0.01 * by_scheme["RS"].mttdl_hours

"""Two-qubit geometric discord via the Bloch picture.

Shows the closed-route pipeline on a handful of states: decompose into
(x, y, T), run the alternating top-eigenvector maximization, certify the
result against an exhaustive search of the projective grid (one
latitude-longitude grid direction per antipodal pair), and compare with
the generic product-basis optimizer.
"""

import numpy as np

import twodiscord as td

CFG = td.OptimizerConfig(restarts=16, seed=0)


def report(label, state):
    b = td.to_bloch(state)
    res = td.two_qubit_geo(b, CFG)
    grid = td.sphere_grid_oracle(b, 200)
    generic = td.geo_discord_two_sided(state, CFG).value
    # the oracle certifies the inner maximization, so compare objectives there
    _, _, alt = td.alternating_sphere_max(b, CFG)
    print(f"{label:28s} discord {res.value:.9f}  generic {generic:.9f}  "
          f"alt-vs-grid gap {abs(alt - grid):.2e}")


def main():
    print("state                        two_qubit_geo  generic optimizer  certification")
    report("Bell state", td.bell_state())

    mm = td.make_bipartite(np.eye(4) / 4, 2, 2)
    report("maximally mixed", mm)

    report("werner x=0.9", td.werner(2, 0.9))

    rng = np.random.default_rng(0)
    from twodiscord.verification import random_bipartite, random_zero_marginal_two_qubit

    for k in range(3):
        report(f"random rank-4 #{k}", random_bipartite(rng, 2, 2))
    for k in range(2):
        report(f"zero-marginal #{k}", random_zero_marginal_two_qubit(rng))

    # the closed-form structures of Dakic, Vedral & Brukner run the same
    # alternating search, which meets their value 0 up to rounding
    b0 = td.TwoQubitBloch(np.array([0.2, 0.0, 0.3]), np.array([0.1, 0.1, 0.0]),
                          np.zeros((3, 3)))
    x = np.array([0.0, 0.0, 0.6])
    y = np.array([0.0, 0.0, 0.8])
    bp = td.TwoQubitBloch(x, y, np.outer(x, y))
    print()
    for label, b in (("T=0 tensor:", b0), ("product tensor:", bp)):
        res = td.two_qubit_geo(b, CFG)
        print(f"{label:18s} {res.value:.3e} (closed form 0; "
              f"{res.optimizer_report.restarts_run} alternation starts)")


if __name__ == "__main__":
    main()

"""Why high-order connectivity matters — the paper's premise, measured.

Run:  python examples/graph_connectivity.py

Section II-C argues that standard KG embedding methods under-use
*high-order* connectivity: related data objects may be several hops apart.
This example measures that on the OOI-like CKG:

1. structural summary (the CKG is one giant connected component);
2. hop reachability: what fraction of the catalog a user's signal can reach
   at propagation depth 1, 2, 3 — the direct justification for CKAT's L=3;
3. item-to-item BFS distances: how often related objects sit beyond the
   reach of first-order methods;
4. concrete high-order paths rendered as explanations.
"""

import numpy as np

from repro import KnowledgeSources, load_dataset
from repro.kg.graph_analysis import (
    connectivity_summary,
    hop_reachability,
    item_distance_histogram,
)
from repro.kg.paths import explain_recommendation


def main() -> None:
    dataset = load_dataset("ooi", scale="small", seed=23)
    ckg = dataset.build_ckg(KnowledgeSources.best())
    print(ckg.describe(), "\n")

    print("structure:")
    for key, value in connectivity_summary(ckg).items():
        print(f"  {key}: {value:.3f}")

    print("\nhop reachability (mean fraction of items reachable from a user):")
    reach = hop_reachability(ckg, max_hops=3, sample=25, seed=0)
    for hops, fraction in reach.items():
        bar = "#" * int(fraction * 40)
        print(f"  ≤{hops} hops: {fraction:6.1%} {bar}")
    print(
        "  → depth-1 propagation sees only a user's own history; depth-3"
        "\n    covers most of the catalog — the paper's case for L = 3."
    )

    print("\nitem-to-item BFS distances (200 random pairs):")
    hist = item_distance_histogram(ckg, num_pairs=200, seed=0)
    for key, value in hist.items():
        print(f"  {key}: {value:.3f}")
    print(
        "  → the pairs beyond 2 hops are exactly the relations first-order"
        "\n    methods (CKE/CFKG) cannot model."
    )

    # Show a few concrete high-order explanations.
    train = dataset.split.train
    user = int(np.argmax(train.user_degree()))
    seen = set(train.items_of_user(user).tolist())
    unseen = [v for v in range(ckg.num_items) if v not in seen]
    print(f"\nhigh-order paths from user {user} to unseen items:")
    shown = 0
    for item in unseen:
        lines = explain_recommendation(ckg, user, int(item), max_length=3, max_paths=1)
        if lines and "interact" not in lines[0].split("→")[-2]:
            print(f"  {lines[0]}")
            shown += 1
        if shown >= 4:
            break


if __name__ == "__main__":
    main()

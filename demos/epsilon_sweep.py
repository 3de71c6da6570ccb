"""Full epsilon sweep: every attack family across the budget grid, both splits.

Reproduces the headline comparison end to end — dataset, victim, crafting,
per-cell confidence statistics, Welch significance tests — and prints the
test-split table. Expect the viap column to stay flat near zero while fgsm
decays slowly; that gap is the whole point.
"""

import argparse

from viapkit import evaluate, render
from viapkit import train as train_mod


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--iters", type=int, default=20)
    ap.add_argument("--jobs", type=int, default=None,
                    help="processes rendering, training and crafting (default: every core)")
    ap.add_argument("--out", default="demo_out/sweep")
    args = ap.parse_args()

    ds = render.generate_dataset(None, args.jobs, seed=7)
    tr, te = ds.indices("train"), ds.indices("test")
    params, _ = train_mod.train(train_mod.init_params(0), ds.images, ds.labels,
                                train_mod.TrainConfig(), tr, te, jobs=args.jobs)

    cfg = evaluate.SweepConfig(iterations=args.iters)
    result = evaluate.confidence_sweep(params, ds, config=cfg, jobs=args.jobs)
    print(f"clean: train acc {result.clean['train_acc']:.4f}, "
          f"test acc {result.clean['test_acc']:.4f}\n")

    cells = {(c.family, c.eps, c.split): c for c in result.cells}
    grid = list(result.config.eps_grid)
    print("mean softmax on the relevant label, test split")
    print("(true label for untargeted rows - lower is stronger; "
          "target label for -t rows - higher is stronger)")
    header = "family  " + "".join(f"  eps={e:<5g}" for e in grid)
    print(header)
    print("-" * len(header))
    for family in result.config.families:
        row = "".join(f"  {cells[(family, e, 'test')].mean:9.4f}" for e in grid)
        print(f"{family:<8}{row}")

    print()
    for t in result.ttests:
        print(f"welch {t.label}: t={t.t:+.3f} df={t.df:.1f} p={t.p_value:.3e}")

    files = evaluate.emit_report(result, result.ttests, args.out)
    print(f"\nreport -> {args.out} ({len(files)} files)")


if __name__ == "__main__":
    main()

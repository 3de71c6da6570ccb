"""Generate the default multi-view dataset and fit the victim CNN on it."""

import argparse
import os

from viapkit import nn, render
from viapkit import train as train_mod


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7, help="dataset seed")
    ap.add_argument("--train-seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--out", default="demo_out/model")
    args = ap.parse_args()

    ds = render.generate_dataset(seed=args.seed)
    tr, te = ds.indices("train"), ds.indices("test")
    print(f"dataset: {len(ds.images)} views, {ds.n_classes} classes "
          f"({len(tr)} train / {len(te)} test)")

    params = train_mod.init_params(args.train_seed)
    cfg = train_mod.TrainConfig(epochs=args.epochs, seed=args.train_seed)
    params, log = train_mod.train(params, ds.images, ds.labels, cfg, tr, te)

    for entry in log:
        if entry["epoch"] % 5 == 0 or entry["epoch"] == len(log) - 1:
            print(f"epoch {entry['epoch']:>2}  loss {entry['loss']:.4f}  "
                  f"train {entry['train_acc']:.3f}  test {entry['test_acc']:.3f}")

    best = train_mod.best_epoch(log)  # the epoch whose weights train returned
    print(f"\nfinal: train top-1 {best['train_acc']:.4f} "
          f"(softmax {best['train_true_softmax']:.3f}), "
          f"test top-1 {best['test_acc']:.4f} (softmax {best['test_true_softmax']:.3f})")

    os.makedirs(args.out, exist_ok=True)
    weights = os.path.join(args.out, "weights.viapnet")
    nn.save_params(params, weights)
    with open(os.path.join(args.out, "train_log.csv"), "w") as fh:
        fh.write(train_mod.log_csv(log))
    print(f"weights -> {weights}")


if __name__ == "__main__":
    main()

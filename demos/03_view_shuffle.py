"""Walk through the per-batch view shuffle used in training phase 1.

A batch of four samples is split into three single-channel views.  The
shuffle matrix R holds one independent permutation per view column: output
sample i takes view j from input sample R[i, j] and inherits that sample's
label for the view.  This forces the backbone to classify each view on its
own instead of memorising cross-view correlations.
"""

import numpy as np

from flowhar.views import ViewSchema, gen_shuffle_matrix, shuffle_batch


def main():
    # value 100*sample + channel, so provenance is readable in the output
    data = np.zeros((4, 1, 3))
    for i in range(4):
        for ch in range(3):
            data[i, 0, ch] = 100 * i + ch
    labels = np.arange(4)
    schema = ViewSchema(views=((0,), (1,), (2,)))

    r = np.array([[2, 3, 0], [0, 2, 1], [1, 0, 2], [3, 1, 3]])
    shuffled, view_labels = shuffle_batch(data, labels, schema, r)

    print("shuffle matrix R (rows = output samples, columns = views):")
    print(r)
    print("\nshuffled batch (each value is 100*origin_sample + channel):")
    for i in range(4):
        print(f"  sample {i}: {shuffled[i, 0, :].astype(int)}  "
              f"view labels {view_labels[i]}")
    print("\neach column of R is a permutation, so every view's data is")
    print("conserved; a freshly drawn R per batch looks like:")
    print(gen_shuffle_matrix(4, 3, np.random.default_rng(0)))


if __name__ == "__main__":
    main()

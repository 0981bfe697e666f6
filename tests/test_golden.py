"""Seeded campaigns whose selections and ledgers must not move.

``golden/selections.json`` holds, for each campaign below, the integer
fields of every result line: the selected indices, the five ledger counts
and ``rank_exhausted``.  Floats are left out, so a different LAPACK build
can only fail this test by moving a selection.

The ``data-file`` campaign runs on a labelled DDPM file that ``ddpp gen``
writes at test time with ``DATA_GEN``'s flags; its argv names the file
``DATA``.

The file may be regenerated only by a change that declares the re-baseline
in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import tempfile

import pytest

from ddpp import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "selections.json")

ALL = "ddpp,greedi,greedymax,maxdiv,random,stratified"
DATA = "<features.ddpm>"
DATA_GEN = ["--sources", "3", "--ni", "20", "--m", "12", "--clusters", "4",
            "--seed", "5"]
SMALL = ["--m", "16", "--N", "2,3", "--ni", "30", "--kT", "12",
         "--clusters", "6", "--seed-list", "0,1,2"]

# every strategy, every compression, both transports, momentum on and off,
# and one unit serving several R
CAMPAIGNS = {
    "all-loopback": ["--strategies", ALL, *SMALL],
    "all-m64": ["--strategies", ALL, "--m", "64", "--N", "4", "--ni", "60",
                "--kT", "24", "--seed-list", "0,1"],
    "all-tcp": ["--strategies", ALL, "--transport", "tcp", "--tT", "3", *SMALL],
    "svd": ["--strategies", "ddpp", "--compression", "svd", *SMALL],
    "random-sketch": ["--strategies", "ddpp", "--compression", "random_sketch",
                      *SMALL],
    "none": ["--strategies", "ddpp", "--compression", "none", "--R", "16",
             *SMALL],
    "no-momentum": ["--strategies", "ddpp", "--no-momentum", "--tT", "3",
                    *SMALL],
    "no-momentum-svd": ["--strategies", "ddpp", "--no-momentum",
                        "--compression", "svd", "--tT", "3", *SMALL],
    "all-R-sweep": ["--strategies", ALL, "--R", "3,6", *SMALL],
    # a budget past H's rank: the projector greedy stops short and the
    # residual terms take the eigensolver's extra path
    "high-R": ["--strategies", "ddpp", "--R", "12", "--tT", "3", *SMALL],
    "high-R-svd": ["--strategies", "ddpp", "--compression", "svd", "--R", "12",
                   "--tT", "3", *SMALL],
    "high-R-no-momentum": ["--strategies", "ddpp", "--no-momentum", "--R",
                           "12", "--tT", "3", *SMALL],
    # benchmark scale: perfbench's paper-512 flags, where every greedy runs
    # on thousands of rows 512 wide
    "paper-512": ["--strategies", ALL, "--seed-list", "1", "--N", "10",
                  "--m", "512", "--kT", "120", "--tT", "2", "--R", "45.0",
                  "--ni", "500", "--clusters", "80", "--spread", "0.03",
                  "--scale", "10.0", "--radius-jitter", "0.2",
                  "--norm-tail", "0.4", "--mean-sparsity", "0.3",
                  "--partition-policy", "cluster_skewed", "--skew", "0.1"],
    # many feedback rounds: every interval past the second builds its
    # projectors from what the earlier ones received
    "deep-small": ["--strategies", "ddpp", "--N", "4", "--tT", "4", "--m",
                   "16", "--ni", "30", "--kT", "16", "--clusters", "6",
                   "--seed-list", "0,1,2"],
    # perfbench's deep-feedback-tcp flags: five feedback rounds at m = 512
    "deep-feedback-tcp": ["--strategies", "ddpp,greedi", "--seed-list", "1",
                          "--N", "2", "--m", "512", "--kT", "120", "--tT",
                          "6", "--R", "15.0", "--transport", "tcp", "--ni",
                          "500", "--clusters", "80", "--spread", "0.03",
                          "--scale", "10.0", "--radius-jitter", "0.2",
                          "--norm-tail", "0.4", "--mean-sparsity", "0.3",
                          "--partition-policy", "cluster_skewed", "--skew",
                          "0.1"],
    # a labelled data file: every seed of an N runs on the same dataset
    "data-file": ["--strategies", ALL, "--data", DATA, "--N", "2,3",
                  "--seed-list", "0,1,2", "--kT", "6", "--tT", "2"],
}

HEADER = ("Regenerate only in a change that declares the re-baseline in "
          "CHANGES.md; see tests/test_golden.py.")

FIELDS = ("strategy", "seed", "uplink_elements", "downlink_elements",
          "uplink_bytes", "downlink_bytes", "probe_elements", "rank_exhausted",
          "selected_indices")


def campaign_lines(argv, out):
    """The integer fields of each result line of ``ddpp run`` on ``argv``."""
    if DATA in argv:
        gen = os.path.join(out, "gen")
        assert cli.main(["gen", "--out", gen, *DATA_GEN]) == 0
        data = os.path.join(gen, "features.ddpm")
        argv = [data if a == DATA else a for a in argv]
    assert cli.main(["run", "--out", out, *argv]) == 0
    with open(os.path.join(out, "results.jsonl")) as fh:
        return [{f: json.loads(ln)[f] for f in FIELDS} for ln in fh]


def test_the_golden_file_covers_every_campaign():
    with open(GOLDEN) as fh:
        assert set(json.load(fh)["campaigns"]) == set(CAMPAIGNS)


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_matches_golden(name, tmp_path):
    with open(GOLDEN) as fh:
        expected = json.load(fh)["campaigns"][name]
    assert campaign_lines(CAMPAIGNS[name], str(tmp_path)) == expected


if __name__ == "__main__":
    golden = {}
    for name, argv in CAMPAIGNS.items():
        with tempfile.TemporaryDirectory() as out:
            golden[name] = campaign_lines(argv, out)
    with open(GOLDEN, "w") as fh:  # one result line per file line
        blocks = [f"  {json.dumps(name)}: [\n"
                  + ",\n".join(f"   {json.dumps(line)}" for line in lines)
                  + "\n  ]" for name, lines in golden.items()]
        fh.write(f'{{\n "header": {json.dumps(HEADER)},\n "campaigns": {{\n'
                 + ",\n".join(blocks) + "\n }\n}\n")

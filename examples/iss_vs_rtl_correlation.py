#!/usr/bin/env python3
"""End-to-end ISS/RTL correlation: the paper's headline experiment (Figure 7).

The script:

1. measures the instruction diversity of every workload on the ISS,
2. measures the failure probability of stuck-at-1 faults at IU nodes on the
   structural Leon3 model,
3. fits the logarithmic law ``Pf = a·ln(D) + b`` and reports it next to the
   paper's fit (``0.0838·ln(x) − 0.0191``, R² = 0.9246),
4. calibrates a :class:`DiversityFailureModel` on those measurements and uses
   it the way the paper motivates: predicting the failure probability of a
   workload that was *not* part of the calibration set, from its ISS trace
   alone.

Run with:  python examples/iss_vs_rtl_correlation.py --sites 60 --workers 4
(larger --sites values reduce sampling noise and take proportionally longer;
``--workers`` parallelises the RTL campaigns without changing their results).
"""

import argparse

from repro.core.correlation import CorrelationPoint, correlate
from repro.core.diversity import characterize_program
from repro.core.experiments import figure7_correlation
from repro.core.failure_model import DiversityFailureModel
from repro.core.report import render_correlation
from repro.engine import CampaignConfig, CampaignEngine
from repro.rtl.faults import FaultModel
from repro.workloads import build_program


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sites", type=int, default=60,
                        help="fault sites sampled per campaign (default: 60)")
    parser.add_argument("--seed", type=int, default=2015, help="sampling seed")
    parser.add_argument("--holdout", default="tblook",
                        help="workload kept out of calibration and predicted from its ISS trace")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the RTL campaigns (default: 1)")
    args = parser.parse_args()

    # --- 1-3: the Figure 7 correlation over the Table 1 workloads + excerpts --
    print(f"Running the Figure 7 correlation ({args.sites} sites per campaign)...\n")
    result = figure7_correlation(
        sample_size=args.sites, seed=args.seed, n_workers=args.workers
    )
    print(render_correlation(result))

    # --- 4: predict a held-out workload from its ISS trace --------------------
    model = DiversityFailureModel()
    for point in result.points:
        model.add_observation(point.diversity, point.failure_probability, point.workload)

    holdout_program = build_program(args.holdout)
    holdout_characterization = characterize_program(holdout_program, name=args.holdout)
    predicted = model.predict(holdout_characterization.diversity)

    print(f"\nHeld-out workload: {args.holdout!r} "
          f"(diversity {holdout_characterization.diversity}, measured on the ISS only)")
    print(f"  predicted Pf from the calibrated diversity model : {predicted * 100:.1f}%")

    config = CampaignConfig(  # IU nodes: the default unit scope
        sample_size=args.sites, fault_models=[FaultModel.STUCK_AT_1],
        seed=args.seed, n_workers=args.workers,
    )
    campaign = CampaignEngine(holdout_program, config).run()[FaultModel.STUCK_AT_1]
    print(f"  measured Pf from an RTL campaign                  : "
          f"{campaign.failure_probability * 100:.1f}%")
    error = abs(predicted - campaign.failure_probability)
    print(f"  absolute prediction error                         : {error * 100:.1f} pp")

    # Show how the extended fit looks with the hold-out point added.
    extended = correlate(
        list(result.points)
        + [CorrelationPoint(args.holdout, holdout_characterization.diversity,
                            campaign.failure_probability, campaign.injections)]
    )
    print(f"\nFit with the hold-out point added: {extended.describe()}")


if __name__ == "__main__":
    main()

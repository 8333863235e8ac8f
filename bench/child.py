"""One benchmark repetition in a fresh process: set up, run the campaign calls.

Usage: python3 bench/child.py '<job json>'

The job names the calls (argument lists for `mmwia.cli.main` plus their
config files), whether to trace, and where to write spans. Set-up covers
importing numpy and mmwia and loading and validating every config. To
correct both times for the host's speed at the moment (bench/reference.py),
a run of probes follows set-up and, in an untraced child, a sampler probes
the processor throughout the campaign calls. The last line of standard
output is one JSON object with the monotonic clock at the end of set-up,
the campaign wall time, the probe times, the exit code of each call, the
peak resident set size and, when traced, the per-layer metrics.
"""

import json
import resource
import sys
import time

import numpy  # noqa: F401  (set-up cost the user pays)

from mmwia import cli, config, estimation, experiments, preamble, protocol


def main(job: dict) -> dict:
    for call in job["calls"]:
        config.load_config(call["config"])
    t_setup = time.monotonic()
    import reference
    setup_probes = reference.probe_run()
    # the sampler's probe time would count in every wrapped layer's busy time
    sampler, tracer = None, None
    if job["trace"]:
        from tracing import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install({"cli": cli, "config": config, "estimation": estimation,
                        "experiments": experiments, "preamble": preamble,
                        "protocol": protocol})
    else:
        sampler = reference.Sampler()
        sampler.start()

    t0, c0 = time.perf_counter(), time.process_time()
    try:
        codes = [cli.main(call["argv"]) for call in job["calls"]]
    finally:
        campaign_s = time.perf_counter() - t0
        cpu_s = time.process_time() - c0
        if sampler is not None:
            sampler.stop()

    result = {"t_setup": t_setup, "campaign_s": campaign_s, "cpu_s": cpu_s,
              "setup_probes": setup_probes,
              "campaign_probes": sampler.times if sampler else [],
              "probe_total_s": sampler.total_s if sampler else 0.0,
              "exit_codes": codes,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["layers"] = tracer.layers()
        result["metrics"] = layer_metrics(tracer)
        if job.get("spans"):
            tracer.dump(job["spans"])
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))

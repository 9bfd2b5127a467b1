"""Golden run matrix: seeded outputs must stay byte-identical.

Each case is a short run described by config overrides, with the event log
recorded.  Its digest covers the summary row, the event log, the feedback
log, the pooled queueing-delay samples and every FlowStats field (mode log,
feedback count and per-packet deliveries included).  A change that moves any
of them is a behaviour change and must say so.  The same run without the
event log must differ in nothing but the empty log.  Print the current
digests with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib

import pytest

from natsim.config import build_config
from natsim.engine import run_simulation

WALK = "walk:1mbps-24mbps@100ms"
SCHEMES = ("natcp", "nacubic", "cubic", "tg")

# 8 UEs x 4 flows, one flow starting every 70 ms, 20 ms feedback period
MANY_FLOWS = {
    "flows.start_s": ", ".join(f"{0.07 * i:g}" for i in range(32)),
    "flows.ue": ", ".join(str(i % 8) for i in range(32)),
    "assist.period_us": "20000",
}

# label -> overrides applied on top of the defaults
VARIANTS = {
    "oob": {},
    "ib": {"assist.mode": "ib"},
    # 1% air-interface loss after the queue
    "loss": {"path.loss_prob": "0.01"},
    # feedback stops at 2 s: the watchdog reverts natcp and nacubic
    "silenced": {"assist.suppress_after_us": "2000000", "duration_s": "6"},
    # the second flow starts on a feedback-period boundary, so its first
    # out-of-band feedback arrives before its first RTT sample
    "two-flows": {"flows.start_s": "0, 2", "flows.ue": "0"},
    # three flows over two UEs, pacing shared by beta
    "multi-ue": {"flows.start_s": "0, 0, 1", "flows.ue": "0, 1, 1",
                 "cc.divide_pacing_by_beta": "true"},
    "options": {"cc.alpha": "1.5", "cc.tg_horizon_us": "500000"},
    # feedback stops at 2 s: every assisted flow reverts while the watchdog
    # checks of the other flows are still pending
    "many-flows": {**MANY_FLOWS, "assist.suppress_after_us": "2000000",
                   "duration_s": "3"},
    # in-band digests reach one flow per UE at a time, so flows keep
    # reverting and resuming while the others' checks are pending
    "many-flows-ib": {**MANY_FLOWS, "assist.mode": "ib", "duration_s": "3"},
    # the link's cached path delays at their edges: each arrival ties with
    # its send, ideal uplink, jittered probes, a 20-packet queue of 1000 B
    "path": {"mtu": "1000", "path.down_owd_us": "0",
             "path.uplink_rate_bps": "0", "path.probe_jitter_us": "300",
             "queue.capacity_bytes": "20000"},
}

CASES = [(scheme, variant) for variant in VARIANTS for scheme in SCHEMES]

GOLDEN = {
    "natcp-oob": "ecb880db806fe840d1ff30cf4f21b8f72d283933d0891356fc937185eca8e086",
    "nacubic-oob": "60164a87d4e7afa642d3fa7b468d7c876d977d908c89e68fdf8a019f04fad6e2",
    "cubic-oob": "f1393709df6f9f441515b3ad611df7531f215021fe2d0e957711fbe31e3a735c",
    "tg-oob": "d2d1bd06d570d401d84e57855e1f2c0af91e3a85c1dbbc984db29b9fb75aa6a6",
    "natcp-ib": "a1c98566449265480caae3fbaa244311cd3ae183c0c308c783eda8f012b9de04",
    "nacubic-ib": "02a719515b874accc7bb78f423a37af8af3bfac30e7bb7c8ebeb9e23373cd120",
    "cubic-ib": "3f853f58657b406df2704c804a8ccf4fd6b034f3b455fa7adda656dd8d0dcb6c",
    "tg-ib": "1e747408866c81becefe9c4df68376c0e596fedbd0b547803da6dabe3b8535a6",
    "natcp-loss": "1ba1565d4340914526554c31cca92b0e92656b69b807f82fc88114799d61070e",
    "nacubic-loss": "06645e2c634c40d9e0eacaa146847afcb01b13804ef003534fa315f87413def5",
    "cubic-loss": "5ec228e100d110cf073e011007beb29b6ee6dc4888faf0f28fe3be3a33c8c0a6",
    "tg-loss": "3d06a35180da4ebe43f2572ab30f0497993519b29b46f97f02e0c02eb673c84a",
    "natcp-silenced": "dec0f29e95c5858cc5e88369863c309c40c0692ada9722bc37fce18458d61af1",
    "nacubic-silenced": "dcf97fbea6dcc48fa9e0a82b70812767850dfe376e468b3bf7012edb79ba5c6e",
    "cubic-silenced": "3b3f40a4ed830200d17878c855ec06850953639107b51a55530d363210dac2f8",
    "tg-silenced": "24583dd85fe37b1588a4f23222bb6bfc6cdd18c8a51f8587d46209ee41f226f4",
    "natcp-two-flows": "8debb2e05ed77fa67b788a97035c863026725bc2d858afcf13b3c3cd2207a7f4",
    "nacubic-two-flows": "b7a4e1f8ec30c9e1b04620703037512658339759682a37244967b8bd9b33cac1",
    "cubic-two-flows": "6c2a64bf38efb0f2786e608d382de49b819f85c66d0613c644631c9e875a0c0e",
    "tg-two-flows": "8a56d2edd0eec6665e11a17b42bc42a3cf971bc6b660a40cf3fedda6e0a3f80c",
    "natcp-multi-ue": "08f8848538ea1cdd0820948f4cf7b7f82a1831ffc6cde2eada37bd3d4d1ce94d",
    "nacubic-multi-ue": "60bff7db399e6be2448afed2f45ad07026d9c502b95ac4220baeba405b028a32",
    "cubic-multi-ue": "0a14203a0f633b0e63fa3cc27c86657416e63c300528a2656600eb6a4c464767",
    "tg-multi-ue": "7ed075346bcf7b1d959439188a1ef3a1c292ffdf872899b9d2888a38ecd8581d",
    "natcp-options": "8002c2467b475ef9e74e9bc74853a6d446e14a71365a230e7fe25b1c17c0c3ee",
    "nacubic-options": "b48dbb98ed05fef6557fb6709a6edb2e966dfe303781f23a01775f25b5229026",
    "cubic-options": "f1393709df6f9f441515b3ad611df7531f215021fe2d0e957711fbe31e3a735c",
    "tg-options": "5f2538202d1fbaa1f3435bf37ba2b293da88eaa0a2427489eb0a6ea550c48ff2",
    "natcp-many-flows": "aaf3fd5c29e0de49b708cf5a721bb5e0741531a1e34ab991ddfdb0309a99d95d",
    "nacubic-many-flows": "1faf177427bcfa843ee6aa1907a47c1be246f7c8b9832d7e722dc75c7a199465",
    "cubic-many-flows": "73d73ae653df398410b630382964eacf36be5513e271d76f02a28bc8bfe74691",
    "tg-many-flows": "1443e658dfdac08113320712060f662451db543f56040b86b81ec057b238582b",
    "natcp-many-flows-ib": "7cea7c069ee5061b376985b65b898d32aa74afb84efbe005ca6bbedf2ad75cd1",
    "nacubic-many-flows-ib": "6de155012d443a09cc4c6ddd3e9154c9651f5d4be469bb78c8b705ce40d96fed",
    "cubic-many-flows-ib": "00ab7653e5c0bad4ad501d92ae3bdef98cdac8e48cd5f694979dbc5b80091d14",
    "tg-many-flows-ib": "6260da27eb15b7661651eab0d0a6006447743e7ca0b279427f3c1ed7c6fe9fad",
    "natcp-path": "e691de69a836d6054704ff883ac4b9e88e784f2737ad624cf03facc1223fec0b",
    "nacubic-path": "6dfe1e3f345798889cc1f9ecbeba539c536379140489b325cf96fc8dd7311a85",
    "cubic-path": "0f648a18747190018baad84a9a64910de557d72c5eefd1df1fc5c92fc31ba197",
    "tg-path": "68382afa8fa50afec66ee81a575d8989fea95be87ce01e3c41b90d40f848ab6b",
}


def run_case(scheme: str, variant: str, log_events: str = "on"):
    overrides = {"scheme": scheme, "trace": WALK, "duration_s": "4", "seed": "3",
                 "log.events": log_events}
    overrides.update(VARIANTS[variant])
    return run_simulation(build_config(overrides=overrides))


def digest(res, with_event_log: bool = True) -> str:
    h = hashlib.sha256()
    parts = [res.summary_row()]
    parts += [res.event_log] if with_event_log else []
    parts += [res.feedback_log, list(res.qdelay_samples_us)]
    # deliveries expanded to the (t_us, size, first_time) tuples they encode
    parts += [{**vars(flow), "deliveries": [
        (t, res.mtu, True) if t >= 0 else (~t, res.mtu, False)
        for t in flow.deliveries]} for flow in res.flows]
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("scheme,variant", CASES,
                         ids=[f"{s}-{v}" for s, v in CASES])
def test_golden_digest(scheme, variant):
    assert digest(run_case(scheme, variant)) == GOLDEN[f"{scheme}-{variant}"]


@pytest.mark.parametrize("scheme,variant", CASES,
                         ids=[f"{s}-{v}" for s, v in CASES])
def test_event_log_off_changes_nothing_else(scheme, variant):
    logged = run_case(scheme, variant)
    unlogged = run_case(scheme, variant, log_events="off")
    assert logged.event_log
    assert unlogged.event_log == []
    assert (digest(unlogged, with_event_log=False)
            == digest(logged, with_event_log=False))


if __name__ == "__main__":
    for scheme, variant in CASES:
        print(f'    "{scheme}-{variant}": "{digest(run_case(scheme, variant))}",')

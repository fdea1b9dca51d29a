"""The benchmark's workloads, by the name BENCHMARK.json gives them."""

from workloads.certify_stream import CertifyStream
from workloads.query import QueryCold, QueryHot
from workloads.sim_mixed import SimMixed
from workloads.tip_follow import TipFollow

WORKLOADS = {
    cls.name: cls
    for cls in (CertifyStream, TipFollow, QueryCold, QueryHot, SimMixed)
}

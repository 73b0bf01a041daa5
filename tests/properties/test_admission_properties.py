"""Property: the admission grant table's total and the capacity are
never stale.

``UtilizationAdmission`` keeps the admitted total inside its grant table
and works the capacity out when the PCPU count or the reserve is
assigned.  Random interleavings of every admission operation and of
direct grant-table writes (the backdoor a rogue executor uses) must
leave both equal to what a from-scratch recomputation gives.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admission import UtilizationAdmission
from repro.guest.vm import VM

VCPU_COUNT = 4
#: Direct writes may also target uids no VCPU owns.
uids = st.integers(0, VCPU_COUNT - 1) | st.just(999)
bandwidths = st.fractions(min_value=0, max_value=2, max_denominator=50)
requests = st.tuples(
    st.integers(0, VCPU_COUNT - 1), st.integers(0, 120), st.integers(1, 100)
)
reserves = st.fractions(min_value=0, max_value=Fraction(19, 20), max_denominator=20)

operations = st.one_of(
    st.tuples(st.just("commit"), st.lists(requests, min_size=1, max_size=3)),
    st.tuples(st.just("decrease"), st.lists(requests, min_size=1, max_size=2)),
    st.tuples(st.just("release"), st.integers(0, VCPU_COUNT - 1)),
    st.tuples(st.just("shed")),
    st.tuples(st.just("pcpus"), st.integers(0, 4)),
    st.tuples(st.just("reserve"), reserves),
    st.tuples(st.just("set"), uids, bandwidths),
    st.tuples(st.just("del"), uids),
)


def _apply(adm, vcpus, op) -> None:
    name = op[0]
    if name == "commit":
        adm.try_commit([(vcpus[i], budget, period) for i, budget, period in op[1]])
    elif name == "decrease":
        adm.commit_decrease([(vcpus[i], budget, period) for i, budget, period in op[1]])
    elif name == "release":
        adm.release(vcpus[op[1]])
    elif name == "shed":
        adm.shed_to_capacity()
    elif name == "pcpus":
        adm.set_pcpu_count(op[1])
    elif name == "reserve":  # every drawn reserve is below one PCPU
        adm.background_reserve = op[1]
    elif name == "set":
        adm._granted[op[1]] = op[2]
    elif op[1] in adm._granted:
        del adm._granted[op[1]]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4),
    reserves,
    st.lists(operations, max_size=40),
)
def test_total_and_capacity_track_every_write(pcpus, reserve, ops):
    adm = UtilizationAdmission(pcpus, background_reserve=reserve)
    vm = VM("vm", vcpu_count=VCPU_COUNT)
    vcpus = [vm.vcpus[i] for i in range(VCPU_COUNT)]
    for op in ops:
        _apply(adm, vcpus, op)
        assert adm.total_granted == sum(adm._granted.values(), Fraction(0))
        assert adm.capacity == max(
            Fraction(adm.pcpu_count) - adm.background_reserve, Fraction(0)
        )
        assert adm.remaining == adm.capacity - adm.total_granted

"""Policy cache: install/replace/remove, expiry, subdomains, consent."""

from hypothesis import given, strategies as st

import pytest

from nellab.headers import MAX_HEADER_BYTES
from nellab.policy_store import PolicyStore, StoreEffect, superdomains

from conftest import DEEP_HEADER

NEL = '{"report_to":"g","max_age":86400}'
NEL_SUB = '{"report_to":"g","max_age":86400,"include_subdomains":true}'
NEL_REMOVE = '{"report_to":"g","max_age":0}'
GROUPS = '{"group":"g","max_age":86400,"endpoints":[{"url":"https://c.example/up"}]}'


def install(store, host, now=0, nel=NEL, report_to=GROUPS, secure=True):
    return store.process_policy_headers(host, secure, nel, report_to, now)


class TestProcessPolicyHeaders:
    def test_install_then_lookup(self):
        store = PolicyStore()
        assert install(store, "a.example") == StoreEffect("installed")
        stored = store.lookup("a.example", 10)
        assert stored.host == "a.example"

    def test_removal_deletes_prior_policy(self):
        store = PolicyStore()
        install(store, "a.example")
        effect = install(store, "a.example", now=5, nel=NEL_REMOVE)
        assert effect == StoreEffect("removed")
        assert store.lookup("a.example", 10) is None

    def test_removal_is_idempotent(self):
        store = PolicyStore()
        assert install(store, "a.example", nel=NEL_REMOVE) == StoreEffect("removed")
        assert install(store, "a.example", nel=NEL_REMOVE) == StoreEffect("removed")

    def test_last_policy_wins(self):
        store = PolicyStore()
        install(store, "a.example")
        second = '{"report_to":"g","max_age":50}'
        assert install(store, "a.example", now=5, nel=second) == \
            StoreEffect("replaced")
        assert list(store._entries) == ["a.example"]
        assert store.lookup("a.example", 10).policy.max_age == 50

    def test_insecure_transport_ignored(self):
        store = PolicyStore()
        effect = install(store, "a.example", secure=False)
        assert effect == StoreEffect("ignored", "insecure")
        assert store.lookup("a.example", 1) is None

    def test_absent_header_ignored(self):
        store = PolicyStore()
        assert install(store, "a.example", nel=None) == \
            StoreEffect("ignored", "no_header")

    def test_hostile_header_never_raises(self):
        store = PolicyStore()
        assert install(store, "a.example", nel='{"max_age":').kind == "ignored"
        assert install(store, "a.example", report_to="}{").kind == "ignored"

    def test_unnamed_group_ignored(self):
        store = PolicyStore()
        other = '{"group":"other","max_age":60,"endpoints":[{"url":"https://c.example/u"}]}'
        assert install(store, "a.example", report_to=other) == \
            StoreEffect("ignored", "unknown_group")
        assert install(store, "a.example", report_to=None) == \
            StoreEffect("ignored", "unknown_group")

    def test_host_normalized_to_lowercase(self):
        store = PolicyStore()
        install(store, "A.Example")
        assert store.lookup("a.example", 1) is not None


class TestParseMemo:
    def test_same_header_values_share_one_parse(self):
        nel = '{"report_to":"g","max_age":86400,"request_headers":["Cookie"]}'
        first, second = PolicyStore(), PolicyStore()
        install(first, "a.example", nel=nel)
        install(second, "b.example", nel=nel)
        a = first.lookup("a.example", 0)
        b = second.lookup("b.example", 0)
        assert a.policy is b.policy
        assert a.group is b.group

    @pytest.mark.parametrize("nel, report_to", [
        ('{"report_to":"g","max_age":', GROUPS),
        ('{"report_to":"g","max_age":60,"pad":"' + "x" * MAX_HEADER_BYTES + '"}',
         GROUPS),
        (NEL, '{"group":"g","max_age":60,"endpoints":[{"url":"http://c.example/"}]}'),
        (NEL, GROUPS[:-1] + ',"pad":"' + "x" * MAX_HEADER_BYTES + '"}'),
        (DEEP_HEADER, GROUPS),
        (NEL, DEEP_HEADER),
    ], ids=["malformed-nel", "oversize-nel", "malformed-report-to",
            "oversize-report-to", "deep-nel", "deep-report-to"])
    def test_bad_value_ignored_on_every_call(self, nel, report_to):
        store = PolicyStore()
        for now in range(3):
            assert (install(store, "a.example", now=now, nel=nel, report_to=report_to)
                    == StoreEffect("ignored", "parse_error"))
        assert store._entries == {}


class TestConsentGate:
    def test_enforce_blocks_without_consent(self):
        store = PolicyStore(enforce_consent=True)
        assert install(store, "a.example") == StoreEffect("ignored", "no_consent")
        assert store.lookup("a.example", 1) is None

    def test_grant_then_install(self):
        store = PolicyStore(enforce_consent=True)
        store.set_consent("a.example", True)
        assert install(store, "a.example") == StoreEffect("installed")

    def test_revoke_deletes_stored_policy(self):
        store = PolicyStore(enforce_consent=True)
        store.set_consent("a.example", True)
        install(store, "a.example")
        store.set_consent("a.example", False)
        assert store.lookup("a.example", 1) is None

    def test_bypass_ignores_flags(self):
        store = PolicyStore()
        store.set_consent("a.example", False)
        assert install(store, "a.example") == StoreEffect("installed")

    def test_removal_not_consent_gated(self):
        # Deleting stored state needs no consent; nothing is stored.
        store = PolicyStore(enforce_consent=True)
        assert install(store, "a.example", nel=NEL_REMOVE) == StoreEffect("removed")


class TestLookupSubdomains:
    def test_subdomain_match_when_flagged(self):
        store = PolicyStore()
        install(store, "b.example", nel=NEL_SUB)
        assert store.lookup("a.b.example", 10).host == "b.example"

    def test_no_match_without_flag(self):
        store = PolicyStore()
        install(store, "b.example", nel=NEL)
        assert store.lookup("a.b.example", 10) is None

    def test_exact_beats_superdomain(self):
        store = PolicyStore()
        install(store, "b.example", nel=NEL_SUB)
        install(store, "a.b.example", nel=NEL)
        assert store.lookup("a.b.example", 10).host == "a.b.example"

    def test_most_specific_superdomain_wins(self):
        store = PolicyStore()
        install(store, "example", nel=NEL_SUB)
        install(store, "b.example", nel=NEL_SUB)
        assert store.lookup("a.b.example", 10).host == "b.example"

    def test_unflagged_closer_superdomain_does_not_shadow(self):
        store = PolicyStore()
        install(store, "example", nel=NEL_SUB)
        install(store, "b.example", nel=NEL)
        assert store.lookup("a.b.example", 10).host == "example"

    def test_sibling_never_matches(self):
        store = PolicyStore()
        install(store, "a.b.example", nel=NEL_SUB)
        assert store.lookup("c.b.example", 10) is None

    def test_child_never_matches(self):
        store = PolicyStore()
        install(store, "a.b.example", nel=NEL_SUB)
        assert store.lookup("b.example", 10) is None


class TestExpiry:
    def test_expired_entry_behaves_as_absent(self):
        store = PolicyStore()
        install(store, "a.example", now=0, nel='{"report_to":"g","max_age":1}')
        assert store.lookup("a.example", 999) is not None
        assert store.lookup("a.example", 1000) is None

    def test_century_lifetime_retained(self):
        century = 100 * 365 * 86400
        ten_years_ms = 10 * 365 * 86400 * 1000
        store = PolicyStore()
        install(store, "a.example", now=0,
                nel=f'{{"report_to":"g","max_age":{century}}}')
        assert store.lookup("a.example", ten_years_ms) is not None

    def test_expiry_is_monotone(self):
        store = PolicyStore()
        install(store, "a.example", now=0, nel='{"report_to":"g","max_age":2}')
        assert store.lookup("a.example", 2000) is None
        for later in (2001, 5000, 10**12):
            assert store.lookup("a.example", later) is None


class TestClearBrowsingData:
    def test_empty(self):
        assert PolicyStore().clear_browsing_data() == 0

    def test_counts_and_empties(self):
        store = PolicyStore()
        for host in ("a.example", "b.example", "c.example"):
            install(store, host)
        assert store.clear_browsing_data() == 3
        for host in ("a.example", "b.example", "c.example"):
            assert store.lookup(host, 1) is None

    def test_consent_ledger_cleared_too(self):
        store = PolicyStore(enforce_consent=True)
        store.set_consent("a.example", True)
        install(store, "a.example")
        store.clear_browsing_data()
        assert install(store, "a.example") == StoreEffect("ignored", "no_consent")


# -- randomized properties (the full-size suite lives in test_acceptance) ----

hosts = st.lists(st.sampled_from("abc"), min_size=1, max_size=4).map(".".join)


@given(st.lists(st.tuples(hosts, st.booleans()), max_size=12))
def test_cardinality_one_entry_per_host(operations):
    store = PolicyStore()
    for host, remove in operations:
        install(store, host, nel=NEL_REMOVE if remove else NEL)
    assert len(store._entries) == len(set(store._entries))


consent_ops = st.one_of(
    st.tuples(st.just("grant"), hosts, st.booleans()),
    st.tuples(st.just("install"), hosts, st.booleans()),
    st.tuples(st.just("remove"), hosts, st.booleans()),
)


@given(st.lists(consent_ops, max_size=15))
def test_consent_soundness_after_every_mutation(operations):
    """Enforce mode: a stored host always has consent, at every step."""
    store = PolicyStore(enforce_consent=True)
    for op, host, flag in operations:
        if op == "grant":
            store.set_consent(host, flag)
        elif op == "install":
            install(store, host)
        else:
            install(store, host, nel=NEL_REMOVE)
        for stored_host in list(store._entries):
            # Only a host with consent may install again.
            assert install(store, stored_host) == StoreEffect("replaced")


@given(st.lists(st.tuples(hosts, st.booleans()), max_size=10), hosts)
def test_lookup_matches_suffix_walk_oracle(content, query):
    store = PolicyStore()
    expected: dict[str, bool] = {}
    for host, flagged in content:
        install(store, host, nel=NEL_SUB if flagged else NEL)
        expected[host] = flagged

    def oracle():
        if query in expected:
            return query, False
        for sup in superdomains(query):
            if sup in expected and expected[sup]:
                return sup, True
        return None

    result = store.lookup(query, 10)
    if result is None:
        assert oracle() is None
    else:
        assert (result.host, result.host != query) == oracle()

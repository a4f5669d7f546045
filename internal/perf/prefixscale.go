package perf

import (
	"context"
	"fmt"

	"chameleon/internal/obs"
	"chameleon/internal/scenario"
)

// Prefix-scale workloads: the §7 regime where the reconfigured network
// carries Internet-scale tables, not the handful of prefixes of the case
// studies. Two axes are measured:
//
//   - whatif-100k-cow: setup converges a 100k-prefix storm once; the op is
//     a what-if probe — Clone the network, withdraw one prefix, re-converge
//     the clone. Clone shares every route table and the originated
//     announcements copy-on-write and copies only per-router configuration,
//     so the op costs O(routers + sessions) plus path copies along the one
//     touched prefix, whatever the table size. Until BENCH_12 the
//     announcements were a map copied key by key, which made the op ~10 ms
//     and 10.6 MB at 100k prefixes. Since BENCH_13 a leaf holds 4-byte
//     attribute handles instead of 112-byte routes, so a copied leaf is at
//     most 256 B and the op ~33 KB instead of ~120 KB. The name keeps its
//     "-cow" suffix so the point stays comparable with BENCH_3, which also
//     holds the deleted map engine's whatif-100k-map for the record.
//
//   - storm-10k-{routes,batched}: the injection-path A/B. The op is the
//     full build+convergence of a 10k-prefix storm, either route-by-route
//     (one message per route per session) or batched (one message per
//     session carrying the storm). The message-count counters make the
//     reduction machine-independent. Every prefix of a storm carries the
//     same attributes, so its tables intern a handful of attribute records
//     and grow by a handle per entry, and a message carries a prefix and a
//     handle per route (BENCH_14: 8.0 / 2.9 MB a build; 12.5 / 8.2 MB in
//     BENCH_13, when messages carried routes; 30.3 / 26.0 MB in BENCH_12).
const (
	whatIfPrefixes = 100_000
	stormPrefixes  = 10_000
)

// whatIfBench builds a converged storm of n prefixes once (shared across
// reps), then measures clone-probe-reconverge. The op cycles through
// prefixes so no iteration resumes a previously mutated clone, and it
// cross-checks that the probe never leaks into the base
// network — an isolation bug would otherwise masquerade as a speedup.
func whatIfBench(n int) func() (Fn, error) {
	return func() (Fn, error) {
		st, err := scenario.BuildStorm(scenario.StormConfig{
			Prefixes: n, Seed: suiteSeed, Batched: true,
		})
		if err != nil {
			return nil, err
		}
		if got := st.Net.TableEntries(); got < n {
			return nil, fmt.Errorf("storm under-converged: %d table entries < %d prefixes", got, n)
		}
		i := 0
		return func(ctx context.Context) error {
			p := st.Prefixes[i%len(st.Prefixes)]
			i++
			c := st.Net.Clone()
			c.SetRecorder(obs.RecorderFrom(ctx))
			c.WithdrawExternalRoute(st.Ext, p)
			c.Run()
			if _, ok := c.Best(st.Border, p); ok {
				return fmt.Errorf("prefix %d still routed in the clone after withdraw", p)
			}
			if _, ok := st.Net.Best(st.Border, p); !ok {
				return fmt.Errorf("what-if probe of prefix %d leaked into the base network", p)
			}
			return nil
		}, nil
	}
}

// stormBench measures BuildStorm end to end (topology, sessions, storm
// injection, convergence), with the injection mode as the variable. Rebuilt every iteration: convergence is the op.
func stormBench(n int, batched bool) func() (Fn, error) {
	return func() (Fn, error) {
		return func(ctx context.Context) error {
			st, err := scenario.BuildStorm(scenario.StormConfig{
				Prefixes: n, Seed: suiteSeed, Batched: batched,
				Recorder: obs.RecorderFrom(ctx),
			})
			if err != nil {
				return err
			}
			if got := st.Net.TableEntries(); got < n {
				return fmt.Errorf("storm under-converged: %d table entries < %d prefixes", got, n)
			}
			return nil
		}, nil
	}
}

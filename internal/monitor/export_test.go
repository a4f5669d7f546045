package monitor

import (
	"bufio"
	"encoding/json"
	"io"
	"time"

	"chameleon/internal/bgp"
	"chameleon/internal/fwd"
	"chameleon/internal/sim"
)

// Observe checks one forwarding-state snapshot with no provenance (the
// root cause comes out as "init").
func (m *Monitor) Observe(at time.Duration, prefix bgp.Prefix, st fwd.State) {
	m.ObserveProvenance(at, prefix, st, sim.Provenance{})
}

// WriteRecords re-emits parsed timeline records in the canonical JSONL
// form. WriteJSONL → ValidateJSONL → WriteRecords reproduces the original
// bytes exactly (the round-trip tests pin this), which is what lets the
// run-bundle differ treat timeline artifacts as canonical: any byte
// difference between two artifacts is a structural difference between the
// runs, never a serialization accident.
func WriteRecords(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// OpenViolations returns copies of the violations open so far, in onset
// order: the part of a monitor's state no timeline shows until it closes.
func (m *Monitor) OpenViolations() []Violation {
	out := make([]Violation, len(m.open))
	for i, v := range m.open {
		out[i] = *v
	}
	return out
}

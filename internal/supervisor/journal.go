package supervisor

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"

	"chameleon/internal/monitor"
	"chameleon/internal/sim"
)

// The execution journal is a crash-safe append-only JSONL WAL: one entry per
// line, sequenced, fsynced per append. A restarted supervisor replays it to
// reconstruct exactly where a crashed run stood — which recovery rung it was
// on, which original commands had landed, and the full serialized network
// state at the last recovery boundary — and resumes (or rolls back) to the
// same outcome the uninterrupted run would have reached. Torn trailing
// lines (a crash mid-write) are tolerated and discarded; an entry is only
// trusted if it parses completely and its sequence number follows its
// predecessor's.

// Entry kinds.
const (
	// KindBegin opens a journal: scenario identity and the original
	// commands' descriptions.
	KindBegin = "begin"
	// KindSnapshot records a recovery boundary: the rung and attempt about
	// to run, the applied-originals vector, and the full network state.
	// Every executor invocation is preceded by one, so resume never has to
	// reconstruct mid-execution state.
	KindSnapshot = "snapshot"
	// KindPlan records the shape of a freshly compiled plan.
	KindPlan = "plan"
	// KindExec records how one executor invocation ended.
	KindExec = "exec"
	// KindAbort records a released (aborted) plan.
	KindAbort = "abort"
	// KindTimeline embeds one finished attempt's monitor timeline.
	KindTimeline = "timeline"
	// KindDecision records a degradation-ladder decision (replan, commit,
	// rollback, forced-commit, forced-rollback) and its reason.
	KindDecision = "decision"
	// KindOutcome closes a journal: the supervisor's terminal outcome.
	KindOutcome = "outcome"
)

// Entry is one journal line. Kind selects which optional fields are
// meaningful; SimNS stamps every entry with the simulated clock (never wall
// time, so journals are byte-reproducible).
type Entry struct {
	Seq   uint64 `json:"seq"`
	Kind  string `json:"kind"`
	SimNS int64  `json:"sim_ns"`

	// begin
	Scenario string   `json:"scenario,omitempty"`
	Seed     uint64   `json:"seed,omitempty"`
	Commands []string `json:"commands,omitempty"`

	// snapshot
	Rung    string        `json:"rung,omitempty"`
	Attempt int           `json:"attempt,omitempty"`
	Applied []bool        `json:"applied,omitempty"`
	State   *sim.NetState `json:"state,omitempty"`

	// plan
	Rounds int `json:"rounds,omitempty"`
	Steps  int `json:"steps,omitempty"`

	// exec / decision
	Err       string `json:"err,omitempty"`
	Decision  string `json:"decision,omitempty"`
	Reason    string `json:"reason,omitempty"`
	Invariant string `json:"invariant,omitempty"`

	// timeline
	Timeline *monitor.Timeline `json:"timeline,omitempty"`

	// outcome
	Outcome string `json:"outcome,omitempty"`
	Forced  bool   `json:"forced,omitempty"`
}

// Journal appends entries to a JSONL WAL file. A nil *Journal is a valid
// no-op journal, so unjournaled supervision shares all code paths.
type Journal struct {
	f     *os.File
	seq   uint64
	bytes int64
}

// NewJournal creates (truncating) the journal file at path.
func NewJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &Journal{f: f}, nil
}

// openAppend reopens an existing journal for appending after lastSeq,
// first truncating it to validLen bytes so a torn trailing line (tolerated
// and discarded by ReadJournal) is not left embedded mid-file once new
// entries follow it.
func openAppend(path string, lastSeq uint64, validLen int64) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(validLen, 0); err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{f: f, seq: lastSeq}, nil
}

// Append sequences, writes and fsyncs one entry. The fsync is the WAL
// guarantee: once Append returns, a crash cannot lose the entry.
func (j *Journal) Append(e Entry) error {
	if j == nil {
		return nil
	}
	j.seq++
	e.Seq = j.seq
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	n, err := j.f.Write(b)
	j.bytes += int64(n)
	if err != nil {
		return err
	}
	return j.f.Sync()
}

// Bytes returns the number of bytes appended through this handle.
func (j *Journal) Bytes() int64 {
	if j == nil {
		return 0
	}
	return j.bytes
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	if j == nil || j.f == nil {
		return nil
	}
	return j.f.Close()
}

// DescribeEntry renders one journal entry as a one-line human-readable
// summary — what the run-bundle differ prints when two journals first
// disagree, so a divergence names the decision or snapshot where the runs
// parted rather than a raw JSON blob.
func DescribeEntry(e Entry) string {
	head := fmt.Sprintf("#%d %s @%dns", e.Seq, e.Kind, e.SimNS)
	switch e.Kind {
	case KindBegin:
		return fmt.Sprintf("%s scenario=%s seed=%d commands=%d", head, e.Scenario, e.Seed, len(e.Commands))
	case KindSnapshot:
		return fmt.Sprintf("%s rung=%s attempt=%d", head, e.Rung, e.Attempt)
	case KindPlan:
		return fmt.Sprintf("%s rounds=%d steps=%d", head, e.Rounds, e.Steps)
	case KindExec:
		return fmt.Sprintf("%s err=%q", head, e.Err)
	case KindDecision:
		return fmt.Sprintf("%s decision=%s reason=%q invariant=%s", head, e.Decision, e.Reason, e.Invariant)
	case KindTimeline:
		n := 0
		if e.Timeline != nil {
			n = len(e.Timeline.Violations)
		}
		return fmt.Sprintf("%s violations=%d", head, n)
	case KindOutcome:
		return fmt.Sprintf("%s outcome=%s forced=%v", head, e.Outcome, e.Forced)
	}
	return head
}

// ReadJournal parses a journal file, tolerating a torn trailing line: a
// final line that fails to parse, or whose sequence number does not follow
// its predecessor's, is discarded (the crash interrupted its write). The
// same defect anywhere earlier is corruption and an error.
func ReadJournal(path string) ([]Entry, error) {
	entries, _, err := readJournal(path)
	return entries, err
}

// readJournal additionally returns the byte length of the valid prefix —
// the offset openAppend truncates to so nothing is ever appended after a
// torn line.
func readJournal(path string) ([]Entry, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()

	var (
		entries []Entry
		raw     [][]byte
	)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := make([]byte, len(sc.Bytes()))
		copy(line, sc.Bytes())
		raw = append(raw, line)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	var validLen int64
	for i, line := range raw {
		if len(line) == 0 {
			validLen++ // the bare newline
			continue
		}
		var e Entry
		bad := ""
		if err := json.Unmarshal(line, &e); err != nil {
			bad = err.Error()
		} else if want := uint64(len(entries) + 1); e.Seq != want {
			bad = fmt.Sprintf("seq %d, want %d", e.Seq, want)
		}
		if bad != "" {
			if i == len(raw)-1 {
				break // torn trailing line: the crash interrupted this write
			}
			return nil, 0, fmt.Errorf("supervisor: journal %s line %d corrupt: %s", path, i+1, bad)
		}
		entries = append(entries, e)
		validLen += int64(len(line)) + 1
	}
	return entries, validLen, nil
}

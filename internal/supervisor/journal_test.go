package supervisor

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestResumeAfterTornNewline: a journal torn just before its final newline
// loses that unterminated entry, and an entry appended on resume follows
// the valid prefix directly — no byte beyond the file's end is counted, so
// no NUL is written and nothing read back goes missing.
func TestResumeAfterTornNewline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "exec.jsonl")
	j, err := NewJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Entry{
		{Kind: KindBegin, Scenario: "clos4", Seed: 7},
		{Kind: KindDecision, Decision: "replan", Reason: "invariant violated"},
	} {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	entries, validLen, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if size := int64(len(raw) - 1); validLen > size {
		t.Errorf("valid prefix %d bytes, file holds %d", validLen, size)
	}
	j, err = openAppend(path, entries[len(entries)-1].Seq, validLen)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Entry{Kind: KindOutcome, Outcome: "final"}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.IndexByte(after, 0) >= 0 {
		t.Errorf("resumed journal holds a NUL byte:\n%q", after)
	}
	got, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries)+1 || got[len(got)-1].Kind != KindOutcome {
		t.Fatalf("read back %d entries ending %+v, want the %d resumed from plus the outcome",
			len(got), got[len(got)-1], len(entries))
	}
}

// FuzzReadJournal: the journal reader, which obsdiff and Resume trust with
// whatever a crash or a hostile bundle left on disk, never panics; its
// valid prefix never extends past the file; the entries it accepts,
// re-appended to a fresh journal, read back equal; and an entry appended
// on resume reads back after them. A real -supervise journal seeds the
// corpus under testdata/fuzz/FuzzReadJournal/, beside the torn and hostile
// inputs below.
func FuzzReadJournal(f *testing.F) {
	for _, hostile := range []string{
		"",
		"\n\n",
		`{"seq":1,"kind":"begin","sim_ns":0}`,
		`{"seq":1,"kind":"begin","sim_ns":0}` + "\r\n" + `{"seq":2,"kind":"outcome","sim_ns":5}` + "\n",
		`{"seq":2,"kind":"begin","sim_ns":0}` + "\n",
		`{"seq":1,"kind":"begin","sim_ns":0}` + "\n" + `{"seq":1,"ki` + "\n\n",
		`{"seq":1,"kind":"snapshot","sim_ns":0,"applied":[true],"state":{}}` + "\n",
		`[]` + "\n",
		`{"seq":1,"kind":"begin","commands":[],"scenario":"\xff<&>"}` + "\n",
	} {
		f.Add([]byte(hostile))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		entries, validLen, err := readJournal(path)
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("valid prefix %d bytes, file holds %d", validLen, len(data))
		}
		if err != nil {
			return
		}

		fresh := filepath.Join(dir, "fresh.jsonl")
		j, err := NewJournal(fresh)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if err := j.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		back, err := ReadJournal(fresh)
		if err != nil {
			t.Fatalf("re-appended entries do not read back: %v", err)
		}
		if len(back) != len(entries) {
			t.Fatalf("re-appended %d entries, read back %d", len(entries), len(back))
		}
		for i := range entries {
			want, _ := json.Marshal(entries[i])
			got, _ := json.Marshal(back[i])
			if !bytes.Equal(got, want) {
				t.Fatalf("entry %d re-appended as %s, reads back as %s", i+1, want, got)
			}
		}

		var lastSeq uint64
		if len(entries) > 0 {
			lastSeq = entries[len(entries)-1].Seq
		}
		j, err = openAppend(path, lastSeq, validLen)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(Entry{Kind: KindOutcome, Outcome: "final"}); err != nil {
			t.Fatal(err)
		}
		j.Close()
		resumed, err := ReadJournal(path)
		if err != nil {
			t.Fatalf("journal resumed after %d bytes does not read: %v", validLen, err)
		}
		if len(resumed) != len(entries)+1 || resumed[len(entries)].Kind != KindOutcome {
			t.Fatalf("resumed journal reads %d entries, want %d then the outcome", len(resumed), len(entries))
		}
	})
}

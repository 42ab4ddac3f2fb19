package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func sampleRecords() []Record {
	return []Record{
		{Kind: KindJoin, Wall: 100, Thread: "T1", Action: "chaos#1", Role: "r1"},
		{Kind: KindRaise, Wall: 200, Thread: "T1", Action: "chaos#1", Round: 0, Exc: "e1"},
		{Kind: KindVote, Wall: 300, Thread: "T1", Action: "chaos#1", Round: 1, Exc: "e2"},
		{Kind: KindOutcome, Wall: 400, Thread: "T1", Action: "chaos#1", Outcome: "signalled:e2"},
		{Kind: KindInstanceStart, Wall: 500, Tag: "mix-3", WorkKind: "storm", Roles: 3},
		{Kind: KindInstanceDone, Wall: 600, Tag: "mix-3"},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf []byte
	for _, r := range recs {
		buf = AppendFrame(buf, r)
	}
	got, err := DecodeAll(buf)
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, recs)
	}
}

func TestDecodeTruncatedTail(t *testing.T) {
	recs := sampleRecords()
	var buf []byte
	for _, r := range recs {
		buf = AppendFrame(buf, r)
	}
	// Any strict prefix decodes to a prefix of the records, never an error:
	// a crash mid-append must not poison replay.
	for cut := 0; cut < len(buf); cut++ {
		got, err := DecodeAll(buf[:cut])
		if err != nil {
			t.Fatalf("cut=%d: DecodeAll: %v", cut, err)
		}
		if len(got) > len(recs) {
			t.Fatalf("cut=%d: decoded %d records from a prefix of %d", cut, len(got), len(recs))
		}
		for i, r := range got {
			if !reflect.DeepEqual(r, recs[i]) {
				t.Fatalf("cut=%d: record %d mismatch", cut, i)
			}
		}
	}
}

func TestStateReplay(t *testing.T) {
	st, err := Replay(sampleRecords())
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	as := st.Actions[ActionKey{Thread: "T1", Action: "chaos#1"}]
	if as.Role != "r1" || as.JoinedWall != 100 || as.Raises != 1 || as.Votes != 1 ||
		as.LastRound != 1 || as.LastExc != "e2" || as.Outcome != "signalled:e2" {
		t.Fatalf("replayed action state %+v", as)
	}
	if got := st.InFlight(); len(got) != 0 {
		t.Fatalf("InFlight = %v, want none (outcome recorded)", got)
	}
	is := st.Instances["mix-3"]
	if is.Kind != "storm" || is.Roles != 3 || !is.Done {
		t.Fatalf("replayed instance state %+v", is)
	}
	if got := st.OpenInstances(); len(got) != 0 {
		t.Fatalf("OpenInstances = %v, want none", got)
	}
}

func TestStateSnapshotRoundTrip(t *testing.T) {
	st, err := Replay(sampleRecords()[:5]) // leave the instance open
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	blob := EncodeState(st)
	back, err := DecodeState(blob)
	if err != nil {
		t.Fatalf("DecodeState: %v", err)
	}
	if !reflect.DeepEqual(st, back) {
		t.Fatalf("snapshot round trip mismatch:\n got %+v\nwant %+v", back, st)
	}
	if got := back.OpenInstances(); len(got) != 1 || got[0] != "mix-3" {
		t.Fatalf("OpenInstances = %v, want [mix-3]", got)
	}
}

func TestFileReopenReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	w, err := Open(path, 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := w.AppendInstanceStart("mix-1", "quiet", 2); err != nil {
		t.Fatalf("AppendInstanceStart: %v", err)
	}
	w.RecordJoin("n1/L1", "mix-1!quiet#1", "r0")
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2, err := Open(path, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	st := w2.State()
	if got := st.OpenInstances(); len(got) != 1 || got[0] != "mix-1" {
		t.Fatalf("OpenInstances after reopen = %v, want [mix-1]", got)
	}
	inflight := st.InFlight()
	if len(inflight) != 1 || inflight[0] != (ActionKey{Thread: "n1/L1", Action: "mix-1!quiet#1"}) {
		t.Fatalf("InFlight after reopen = %v", inflight)
	}
}

func TestFileTornTailDiscarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	w, err := Open(path, 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := w.AppendInstanceStart("mix-1", "quiet", 2); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Simulate a crash mid-append: a garbage partial record at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	if _, err := f.Write([]byte{0xff, 0x07}); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	f.Close()

	w2, err := Open(path, 0)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	if got := w2.State().OpenInstances(); len(got) != 1 || got[0] != "mix-1" {
		t.Fatalf("OpenInstances = %v, want [mix-1]", got)
	}
	// The torn bytes were truncated away; a fresh append then a reopen
	// must replay cleanly.
	if err := w2.AppendInstanceDone("mix-1"); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
	w2.Close()
	w3, err := Open(path, 0)
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer w3.Close()
	if got := w3.State().OpenInstances(); len(got) != 0 {
		t.Fatalf("OpenInstances = %v, want none", got)
	}
}

func TestFileSnapshotCompactionBoundsSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	const every = 16
	w, err := Open(path, every)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Many records for ONE action: compaction folds them into a bounded
	// snapshot regardless of append volume.
	for i := 0; i < 10*every; i++ {
		w.RecordRaise("T1", "a#1", i%3, "e1")
	}
	w.RecordJoin("T1", "a#1", "r1")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	// A raise record is ~25 bytes; without compaction the file would be
	// >4000 bytes. With it, at most `every` records plus one snapshot.
	if info.Size() > 2048 {
		t.Fatalf("wal grew to %d bytes despite snapshotEvery=%d", info.Size(), every)
	}
	w.Close()

	w2, err := Open(path, every)
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer w2.Close()
	as := w2.State().Actions[ActionKey{Thread: "T1", Action: "a#1"}]
	if as.Raises != 10*every || as.Role != "r1" {
		t.Fatalf("state after compaction: %+v", as)
	}
}

func TestFileConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	w, err := Open(path, 64)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const workers, each = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := string(rune('A' + g))
			for i := 0; i < each; i++ {
				w.RecordVote(th, "a#1", i, "")
			}
		}(g)
	}
	wg.Wait()
	w.Close()

	w2, err := Open(path, 64)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	total := 0
	for _, as := range w2.State().Actions {
		total += as.Votes
	}
	if total != workers*each {
		t.Fatalf("replayed %d votes, want %d", total, workers*each)
	}
}

type stubClock struct{}

func (stubClock) Now() time.Duration { return 42 * time.Millisecond }

func TestMemoryStateFiltersByOutcome(t *testing.T) {
	m := NewMemory(stubClock{})
	m.RecordJoin("T1", "chaos#1", "r1")
	m.RecordJoin("T2", "chaos#1", "r2")
	m.RecordOutcome("T2", "chaos#1", "ok")
	st := m.State()
	inflight := st.InFlight()
	if len(inflight) != 1 || inflight[0].Thread != "T1" {
		t.Fatalf("InFlight = %v, want just T1", inflight)
	}
	if got := st.Actions[ActionKey{Thread: "T2", Action: "chaos#1"}].Outcome; got != "ok" {
		t.Fatalf("T2 outcome = %q, want ok", got)
	}
}

// TestFileCompactionForgetsConcluded pins that compaction keeps only what
// a reboot can act on: thousands of concluded actions interleaved with one
// action that never concludes and one open instance leave a file whose
// size does not grow with the action count, and a reopen yields exactly
// the in-flight action and the open instance.
func TestFileCompactionForgetsConcluded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	const every = 16
	w, err := Open(path, every)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	actions := 3000
	if testing.Short() {
		actions = 500
	}
	threads := []string{"T1", "T2", "T3"}
	stuck := ActionKey{Thread: "T1", Action: "stuck#0"}
	w.RecordJoin(stuck.Thread, stuck.Action, "r1")
	if err := w.AppendInstanceStart("open-tag", "quiet", 3); err != nil {
		t.Fatalf("AppendInstanceStart: %v", err)
	}
	var maxSize int64
	for i := 0; i < actions; i++ {
		id := fmt.Sprintf("a#%d", i)
		for _, th := range threads {
			w.RecordJoin(th, id, "r-"+th)
		}
		for _, th := range threads {
			w.RecordVote(th, id, 0, "")
		}
		for _, th := range threads {
			w.RecordOutcome(th, id, "ok")
		}
		if i%50 == 0 {
			tag := fmt.Sprintf("done-%d", i)
			if err := w.AppendInstanceStart(tag, "quiet", 3); err != nil {
				t.Fatalf("AppendInstanceStart: %v", err)
			}
			if err := w.AppendInstanceDone(tag); err != nil {
				t.Fatalf("AppendInstanceDone: %v", err)
			}
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatalf("stat: %v", err)
		}
		maxSize = max(maxSize, info.Size())
		if n := len(w.State().Actions); n > every+2 {
			t.Fatalf("action %d: %d actions held in memory, want at most %d", i, n, every+2)
		}
	}
	// One snapshot of a handful of live entries plus fewer than `every`
	// records of ~30 bytes: well under 2 kB however many actions ran.
	if maxSize > 2048 {
		t.Fatalf("wal reached %d bytes over %d actions with snapshotEvery=%d", maxSize, actions, every)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2, err := Open(path, every)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	st := w2.State()
	if got := st.InFlight(); !reflect.DeepEqual(got, []ActionKey{stuck}) {
		t.Fatalf("InFlight after reopen = %v, want [%v]", got, stuck)
	}
	if as := st.Actions[stuck]; as.Role != "r1" {
		t.Fatalf("in-flight action state after reopen = %+v", as)
	}
	if got := st.OpenInstances(); !reflect.DeepEqual(got, []string{"open-tag"}) {
		t.Fatalf("OpenInstances after reopen = %v, want [open-tag]", got)
	}
	if is := st.Instances["open-tag"]; is.Kind != "quiet" || is.Roles != 3 {
		t.Fatalf("open instance state after reopen = %+v", is)
	}
}

// TestFileCompactionFailureKeepsRecordDurable pins the pre-rename failure
// path: when the snapshot cannot be written (here the log's directory is
// gone, so the temp file cannot be created), the record that triggered the
// compaction is still fsynced through the group commit, and the log stays
// open for further appends.
func TestFileCompactionFailureKeepsRecordDurable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	const every = 4
	w, err := Open(filepath.Join(dir, "node.wal"), every)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer w.Close()
	for i := 0; i < every-1; i++ {
		if err := w.Append(Record{Kind: KindJoin, Thread: "T1", Action: fmt.Sprintf("a#%d", i)}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	for i := every - 1; i < every+2; i++ {
		if err := w.Append(Record{Kind: KindJoin, Thread: "T1", Action: fmt.Sprintf("a#%d", i)}); err != nil {
			t.Fatalf("append %d after a failed compaction: %v", i, err)
		}
		w.sm.Lock()
		synced := w.syncedSeq
		w.sm.Unlock()
		w.mu.Lock()
		written, open := w.writeSeq, w.f != nil
		w.mu.Unlock()
		if synced != written || !open {
			t.Fatalf("append %d: synced %d of %d records, log open %v", i, synced, written, open)
		}
	}
}

// TestFileFailClosedReportsNotDurable pins the post-rename failure state a
// broken compaction leaves (w.f == nil): a record written before it but
// not yet fsynced must not be reported durable by the group commit, and
// later appends fail with "log closed" instead of succeeding.
func TestFileFailClosedReportsNotDurable(t *testing.T) {
	w, err := Open(filepath.Join(t.TempDir(), "node.wal"), 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	w.mu.Lock()
	if _, err := w.f.Write(AppendFrame(nil, Record{Kind: KindJoin, Thread: "T1", Action: "a#1"})); err != nil {
		t.Fatal(err)
	}
	w.writeSeq++
	seq := w.writeSeq
	w.f.Close() // what compactLocked does when the reopen after its rename fails
	w.f = nil
	w.mu.Unlock()
	if err := w.sync(seq); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("sync of an unflushed record after fail-closed = %v, want os.ErrClosed", err)
	}
	if err := w.Append(Record{Kind: KindJoin, Thread: "T1", Action: "a#2"}); err == nil || !strings.Contains(err.Error(), "log closed") {
		t.Fatalf("append after fail-closed = %v, want log closed", err)
	}
}

// BenchmarkFileAppend is the WAL append row of the per-layer ledger: one
// fsynced append, cycling join, vote and outcome over fresh actions, on a
// log that has already concluded `history` actions. Compaction keeps only
// in-flight state, so ns/op must not depend on history.
func BenchmarkFileAppend(b *testing.B) {
	for _, history := range []int{0, 50000} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "node.wal")
			var buf []byte
			for i := 0; i < history; i++ {
				id := "h#" + strconv.Itoa(i)
				buf = AppendFrame(buf, Record{Kind: KindJoin, Wall: 1, Thread: "T1", Action: id, Role: "r1"})
				buf = AppendFrame(buf, Record{Kind: KindOutcome, Wall: 2, Thread: "T1", Action: id, Outcome: "ok"})
			}
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				b.Fatal(err)
			}
			w, err := Open(path, 0)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			// The first DefaultSnapshotEvery appends run untimed: they take
			// the log past its first compaction, which folds any replayed
			// history into one snapshot.
			warm := DefaultSnapshotEvery
			recs := make([]Record, warm+b.N)
			for i := range recs {
				id := "a#" + strconv.Itoa(i/3)
				switch i % 3 {
				case 0:
					recs[i] = Record{Kind: KindJoin, Thread: "T1", Action: id, Role: "r1"}
				case 1:
					recs[i] = Record{Kind: KindVote, Thread: "T1", Action: id}
				default:
					recs[i] = Record{Kind: KindOutcome, Thread: "T1", Action: id, Outcome: "ok"}
				}
			}
			for _, r := range recs[:warm] {
				if err := w.Append(r); err != nil {
					b.Fatal(err)
				}
			}
			recs = recs[warm:]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Append(recs[i]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

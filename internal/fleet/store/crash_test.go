package store

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"
)

// crashChildEnv names the store directory a re-executed test binary
// writes to as the crash test's child.
const crashChildEnv = "MOBICORE_STORE_CRASH_CHILD"

// crashBase is how many records the crash test's first record set holds;
// set n holds crashBase+n records, so every Flush has real bytes to write.
const crashBase = 400

// crashRecord is record i of the crash test's growing record sets.
func crashRecord(i int) Record {
	rec := testRecord(int64(i))
	rec.AvgTempC = 30 + float64(i)/7
	return rec
}

// runCrashChild is the child's loop: starting from what the store holds,
// it opens the store, puts the next record, flushes — an append to the log
// three times in four, a rewrite of the cells file the fourth — closes,
// and reports the record count it flushed, until killed or a deadline
// passes.
func runCrashChild(dir string) {
	out := bufio.NewWriter(os.Stdout)
	deadline := time.Now().Add(time.Minute)
	for iter := 0; time.Now().Before(deadline); iter++ {
		s, err := Open(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		for i, n := s.Len(), max(crashBase, s.Len()+1); i < n; i++ {
			s.Put(crashRecord(i))
		}
		flush := s.Flush
		if iter%4 == 3 {
			flush = s.Compact
		}
		if err := flush(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		n := s.Len()
		if err := s.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Fprintln(out, n)
		out.Flush()
	}
	os.Exit(0)
}

// TestCrashDurability kills a writer process at random moments, inside a
// log append or a rewrite, and checks what a cold Open finds afterwards:
// always exactly one complete record set the child flushed — never a torn
// file, never fewer records than the child last reported flushed — with
// its stale temp files and any torn last log frame ignored, and that a
// Flush then writes that set's canonical bytes.
func TestCrashDurability(t *testing.T) {
	if dir := os.Getenv(crashChildEnv); dir != "" {
		runCrashChild(dir)
	}
	if runtime.GOOS != "linux" {
		t.Skip("crash injection uses SIGKILL on Linux")
	}
	if testing.Short() {
		t.Skip("crash injection re-executes the test binary")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, CellsFile+".tmp-stale"), []byte("{\"key\":"), 0o644); err != nil {
		t.Fatal(err)
	}
	seed := time.Now().UnixNano()
	t.Logf("kill schedule seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	reported := 0 // the most records any child reported flushed
	logs := 0     // kills after which the store held a log
	for kill := range 24 {
		cmd := exec.Command(os.Args[0], "-test.run=^TestCrashDurability$")
		cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Wait for the child's first report, so every kill lands inside
		// the open-put-flush-close loop rather than in process start-up.
		lines := bufio.NewScanner(stdout)
		if !lines.Scan() {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("kill %d: child exited before its first flush", kill)
		}
		time.Sleep(time.Duration(rng.Int63n(int64(40 * time.Millisecond))))
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		for ok := true; ok; ok = lines.Scan() {
			n, err := strconv.Atoi(lines.Text())
			if err != nil {
				t.Fatalf("kill %d: child reported %q", kill, lines.Text())
			}
			reported = max(reported, n)
		}
		cmd.Wait()

		// The killed child still holds the lock; its holder is gone.
		if err := os.Remove(filepath.Join(dir, LockFile)); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, LogFile)); err == nil {
			logs++
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("kill %d: cold Open after the kill: %v", kill, err)
		}
		// The child may have flushed one set past its last report, never
		// more.
		n := s.Len()
		if n < reported || n > reported+1 {
			t.Errorf("kill %d: store holds %d records, but the child last reported flushing %d", kill, n, reported)
		}
		for i := range n {
			if got, ok := s.Get(crashRecord(i).Key); !ok || got != crashRecord(i) {
				t.Fatalf("kill %d: store of %d records lacks record %d of its set", kill, n, i)
			}
		}
		// Whatever state the kill left the sum file in, the next Flush
		// writes the set's canonical bytes.
		if err := s.Flush(); err != nil {
			t.Fatalf("kill %d: Flush after the kill: %v", kill, err)
		}
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = crashRecord(i)
		}
		sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
		if got, err := os.ReadFile(filepath.Join(dir, CellsFile)); err != nil || !bytes.Equal(got, refEncode(t, recs)) {
			t.Fatalf("kill %d: Flush after the kill did not write the canonical bytes of its %d records (%v)", kill, n, err)
		}
		reported = n
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	stale, _ := filepath.Glob(filepath.Join(dir, CellsFile+".tmp-*"))
	t.Logf("%d records after 24 kills; %d stale temp files ignored; %d kills left a log", reported, len(stale), logs)
}

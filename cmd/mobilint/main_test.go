package main

import (
	"bytes"
	"testing"
)

// TestMobilintExitsZeroOnTree runs the driver over the whole module in
// process and requires a silent, zero-status pass — the contract the CI
// gate step depends on. Because the linted files are opened by the test
// binary itself, go test's cache keys on them, and editing any of them
// re-runs the test. The test's working directory is cmd/mobilint, inside
// the module, so findModuleRoot resolves the repo root.
func TestMobilintExitsZeroOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("mobilint ./... exited %d\n%s%s", code, stdout.Bytes(), stderr.Bytes())
	}
	if stdout.Len() != 0 || stderr.Len() != 0 {
		t.Errorf("mobilint ./... printed output on a clean tree:\n%s%s", stdout.Bytes(), stderr.Bytes())
	}
}

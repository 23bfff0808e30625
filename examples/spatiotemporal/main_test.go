package main

import (
	"os"
	"strings"
	"testing"
)

// TestOutputGolden pins the walkthrough's output to testdata/output.golden,
// so the example cannot rot.
func TestOutputGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/output.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("output diverged from golden:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}

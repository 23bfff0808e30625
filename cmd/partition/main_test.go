package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/service"
)

// TestRunRefusesFlagMisuse pins the flag combinations run refuses before
// any study is built or journal directory created: each exits 1 with an
// error naming the misuse.
func TestRunRefusesFlagMisuse(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"resume without checkpoint", []string{"experiment", "all", "-resume"}, "-resume needs -checkpoint DIR"},
		{"checkpoint on a single experiment", []string{"experiment", "table1", "-checkpoint", dir}, "apply only to `experiment all`"},
		{"resume on an attack", []string{"attack", "spatial", "-checkpoint", dir, "-resume"}, "apply only to `experiment all`"},
		{"unknown onfault", []string{"experiment", "all", "-checkpoint", dir, "-onfault", "retry"}, `unknown -onfault policy "retry"`},
		{"onfault on a single experiment", []string{"experiment", "table1", "-onfault", "fail"}, "-onfault needs -checkpoint DIR"},
		{"onfault without checkpoint", []string{"experiment", "all", "-onfault", "degrade", "-stepbudget", "5"}, "-onfault needs -checkpoint DIR"},
		{"grid engine selector", []string{"experiment", "all", "-shards", "4"}, "flag provided but not defined: -shards"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, err := run(tc.args)
			if code != service.ExitHardError || err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%q) = %d, %v; want exit %d with %q", tc.args, code, err, service.ExitHardError, tc.want)
			}
			if _, statErr := os.Stat(dir); !os.IsNotExist(statErr) {
				t.Errorf("run(%q) created the checkpoint directory", tc.args)
			}
		})
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixture is the seeded-violation mini-module the CLI tests drive.
const fixture = "../../internal/lint/testdata/determinism_bad"

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunTextFormatExitsNonZeroOnFindings(t *testing.T) {
	code, stdout, _ := runCLI(t, "-rules", "determinism", fixture+"/...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(stdout, "mglint/determinism") {
		t.Errorf("text output missing findings:\n%s", stdout)
	}
}

func TestRunJSONFormat(t *testing.T) {
	code, stdout, _ := runCLI(t, "-format", "json", "-rules", "determinism", fixture)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.HasPrefix(stdout, "[\n") || !strings.Contains(stdout, `"rule": "determinism"`) {
		t.Errorf("unexpected JSON output:\n%s", stdout)
	}
}

func TestRunSARIFFormat(t *testing.T) {
	code, stdout, _ := runCLI(t, "-format", "sarif", "-rules", "determinism", fixture)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	for _, frag := range []string{"sarif-2.1.0", `"ruleId": "mglint/determinism"`, `"startLine"`} {
		if !strings.Contains(stdout, frag) {
			t.Errorf("SARIF output missing %q:\n%s", frag, stdout)
		}
	}
}

func TestRunUnknownFormatErrors(t *testing.T) {
	code, _, stderr := runCLI(t, "-format", "yaml", fixture)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown -format") {
		t.Errorf("stderr missing format error: %s", stderr)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	bl := filepath.Join(t.TempDir(), "baseline.json")

	// Regenerate the baseline from the fixture's findings...
	code, _, stderr := runCLI(t, "-rules", "determinism", "-baseline", bl, "-write-baseline", fixture)
	if code != 0 {
		t.Fatalf("write-baseline exit = %d, stderr: %s", code, stderr)
	}
	if _, err := os.Stat(bl); err != nil {
		t.Fatal(err)
	}

	// ...after which the same run gates clean.
	code, stdout, _ := runCLI(t, "-rules", "determinism", "-baseline", bl, fixture)
	if code != 0 {
		t.Fatalf("baselined run exit = %d, stdout:\n%s", code, stdout)
	}
	if strings.TrimSpace(stdout) != "" {
		t.Errorf("baselined run still printed findings:\n%s", stdout)
	}
}

func TestSuppressionsAuditMode(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module unimem\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "core")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package core

//lint:ignore mglint/magic-granularity obsolete: nothing left to suppress
func ID(addr uint64) uint64 { return addr }
`
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, _ := runCLI(t, "-suppressions", root)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 for a stale directive", code)
	}
	if !strings.Contains(stdout, "stale-suppression") {
		t.Errorf("audit output missing stale-suppression:\n%s", stdout)
	}

	// The audit needs the whole rule set to judge staleness.
	code, _, stderr := runCLI(t, "-suppressions", "-rules", "alignment", root)
	if code != 2 || !strings.Contains(stderr, "full rule set") {
		t.Errorf("audit with -rules: exit %d, stderr %q; want 2 and an explanation", code, stderr)
	}
}

func TestListRules(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, rule := range []string{"determinism", "probe-discipline", "magic-granularity", "hotpath-alloc"} {
		if !strings.Contains(stdout, rule) {
			t.Errorf("-list output missing %q:\n%s", rule, stdout)
		}
	}
	// Unit domains are types in internal/meta now; the dataflow rule that
	// reconstructed them is gone, and naming it is a usage error.
	if strings.Contains(stdout, "unit-flow") {
		t.Errorf("-list still offers the retired unit-flow rule:\n%s", stdout)
	}
	code, _, stderr := runCLI(t, "-rules", "unit-flow", fixture+"/...")
	if code != 2 || !strings.Contains(stderr, "unknown rule") {
		t.Errorf("-rules unit-flow: exit %d, stderr %q; want 2 and \"unknown rule\"", code, stderr)
	}
}

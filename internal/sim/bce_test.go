package sim_test

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// maxExecBoundsChecks is the ceiling on the bounds checks the compiler
// leaves in exec.go. None of them may fall on the register file; the rest
// guard block, call, counter and predictor tables and cold paths. Lower it
// when a change removes checks; raising it needs a reason.
const maxExecBoundsChecks = 17

// TestExecBoundsChecks compiles this package with the compiler's
// bounds-check report and fails if exec.go holds more checks than
// maxExecBoundsChecks, or any check on a line that indexes the register
// file rf: the uop loop's rf[uint(uint32(x))&mask] form must keep every
// register access check-free.
func TestExecBoundsChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not in PATH")
	}
	cmd := exec.Command(goBin, "build", "-gcflags=-d=ssa/check_bce/debug=1", ".")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out.Bytes())
	}
	src, err := os.ReadFile("exec.go")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(src), "\n")
	rfIndex := regexp.MustCompile(`\brf\[`)
	report := regexp.MustCompile(`(?:^|/)exec\.go:(\d+):\d+: Found Is(?:Slice)?InBounds`)
	n := 0
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		m := report.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		n++
		ln, _ := strconv.Atoi(m[1])
		if ln >= 1 && ln <= len(lines) && rfIndex.MatchString(lines[ln-1]) {
			t.Errorf("bounds check on a register-file access: exec.go:%d: %s", ln, strings.TrimSpace(lines[ln-1]))
		}
	}
	if n == 0 {
		t.Fatalf("no bounds-check report for exec.go in the build output:\n%s", out.Bytes())
	}
	if n > maxExecBoundsChecks {
		t.Errorf("exec.go has %d bounds checks, ceiling %d", n, maxExecBoundsChecks)
	}
	t.Logf("exec.go bounds checks: %d (ceiling %d)", n, maxExecBoundsChecks)
}

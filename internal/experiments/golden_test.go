package experiments

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The figure pin: the experiment tests record their result's String()
// output under the experiment's name, and every recorded output must equal
// its entry in testdata/golden.txt byte for byte. Table IV is not pinned:
// its output is all timings. After a change that moves a figure on purpose,
// regenerate the entries the run recorded with
//
//	go test ./internal/experiments/ -update
//
// and name the figure that moved, and why, in the change's description.

var update = flag.Bool("update", false, "rewrite the recorded entries of testdata/golden.txt from this run's experiment outputs")

const goldenPath = "testdata/golden.txt"

var (
	goldenMu   sync.Mutex
	goldenWant map[string]string
	goldenGot  = map[string]string{}
)

// TestMain loads the golden file before the tests run and, with -update,
// writes the recorded outputs back into it once every test has passed.
func TestMain(m *testing.M) {
	flag.Parse()
	want, err := readGolden(goldenPath)
	if err != nil && !(*update && errors.Is(err, fs.ErrNotExist)) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	goldenWant = want
	code := m.Run()
	if code == 0 && *update {
		if err := writeGolden(goldenPath, goldenWant, goldenGot); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// pinOutput records an experiment's rendered output and fails the test if
// it differs from the golden entry of that name.
func pinOutput(t *testing.T, name, out string) {
	t.Helper()
	if !strings.HasSuffix(out, "\n") {
		out += "\n"
	}
	goldenMu.Lock()
	goldenGot[name] = out
	goldenMu.Unlock()
	if *update {
		return
	}
	want, ok := goldenWant[name]
	if !ok {
		t.Errorf("%s: no entry in %s; record one with -update", name, goldenPath)
		return
	}
	if out != want {
		t.Errorf("%s output differs from %s (regenerate with -update only if the move is intended):\n%s",
			name, goldenPath, firstLineDiff(want, out))
	}
}

// firstLineDiff names the first line at which two outputs part.
func firstLineDiff(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var a, b string
		if i < len(w) {
			a = w[i]
		}
		if i < len(g) {
			b = g[i]
		}
		if a != b {
			return fmt.Sprintf("line %d:\n want %q\n  got %q", i+1, a, b)
		}
	}
	return "outputs differ"
}

// The golden file is a sequence of entries, each a header line
// "-- <name> --" followed by the output verbatim.

func goldenHeader(line string) (string, bool) {
	if strings.HasPrefix(line, "-- ") && strings.HasSuffix(line, " --") && len(line) > 6 {
		return line[3 : len(line)-3], true
	}
	return "", false
}

func readGolden(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("figure pin: %w", err)
	}
	defer f.Close()
	entries := map[string]string{}
	var name string
	var body strings.Builder
	flush := func() {
		if name != "" {
			entries[name] = body.String()
		}
		body.Reset()
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if h, ok := goldenHeader(sc.Text()); ok {
			flush()
			name = h
			continue
		}
		if name == "" {
			return nil, fmt.Errorf("figure pin: %s: text before the first entry", path)
		}
		body.WriteString(sc.Text())
		body.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("figure pin: read %s: %w", path, err)
	}
	flush()
	return entries, nil
}

// writeGolden merges the recorded outputs over the existing entries, so a
// run restricted with -run updates only the experiments it ran.
func writeGolden(path string, old, got map[string]string) error {
	merged := map[string]string{}
	for k, v := range old {
		merged[k] = v
	}
	for k, v := range got {
		for _, line := range strings.Split(v, "\n") {
			if _, ok := goldenHeader(line); ok {
				return fmt.Errorf("figure pin: %s output has a line that reads as an entry header: %q", k, line)
			}
		}
		merged[k] = v
	}
	names := make([]string, 0, len(merged))
	for k := range merged {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "-- %s --\n%s", k, merged[k])
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("figure pin: %w", err)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return fmt.Errorf("figure pin: %w", err)
	}
	return nil
}

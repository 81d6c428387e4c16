package main

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mosaic/internal/cache"
	"mosaic/internal/metrics"
)

// raceEnabled is set by race_test.go under the race detector, which slows a
// fresh Table 2 from under half a minute to over four.
var raceEnabled bool

// archive is the results/ directory that make paper writes.
const archive = "../../results"

// readRows reads a CSV written by this command, one map from column name to
// value a row.
func readRows(t *testing.T, path string) []map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 {
		t.Fatalf("%s has %d rows", path, len(recs))
	}
	var rows []map[string]string
	for _, rec := range recs[1:] {
		row := map[string]string{}
		for i, name := range recs[0] {
			row[name] = rec[i]
		}
		rows = append(rows, row)
	}
	return rows
}

func num(t *testing.T, row map[string]string, col string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		t.Fatalf("%v: column %q: %v", row, col, err)
	}
	return v
}

// checkPaperShape holds a Table 2 to the shape the paper claims: Σscore
// orders the methods MOSAIC_exact < MOSAIC_fast < ModelBased < RuleBased <
// PlainILT, MOSAIC leaves at most one EPE violation over the ten clips, and
// no mask has a shape violation.
//
// It also names the MOSAIC cells whose quality (Eq. 22 without runtime) is
// worse than the RuleBased mask their descent started from. Alg. 1 line 9
// should make that impossible; it is a known failing expectation (ROADMAP
// item 10), logged rather than failed.
func checkPaperShape(t *testing.T, name string, rows []map[string]string) {
	t.Helper()
	scoreSum := map[string]float64{}
	epeSum := map[string]float64{}
	quality := map[string]float64{} // testcase + " " + method → score without runtime
	for _, row := range rows {
		tc, m := row["testcase"], row["method"]
		scoreSum[m] += num(t, row, "score")
		epeSum[m] += num(t, row, "epe_violations")
		q := metrics.Quality{
			EPEViolations:   int(num(t, row, "epe_violations")),
			PVBandNM2:       num(t, row, "pvband_nm2"),
			ShapeViolations: int(num(t, row, "shape_violations")),
		}
		quality[tc+" "+m] = q.Score(0)
		if q.ShapeViolations != 0 {
			t.Errorf("%s: %s %s: %d shape violations, want 0", name, tc, m, q.ShapeViolations)
		}
	}
	order := []string{"MOSAIC_exact", "MOSAIC_fast", "ModelBased", "RuleBased", "PlainILT"}
	for i, m := range order {
		if _, ok := scoreSum[m]; !ok {
			t.Fatalf("%s has no %s rows", name, m)
		}
		if i > 0 && !(scoreSum[order[i-1]] < scoreSum[m]) {
			t.Errorf("%s: Σscore %s = %.0f is not below %s = %.0f", name, order[i-1], scoreSum[order[i-1]], m, scoreSum[m])
		}
	}
	for _, m := range order[:2] {
		if epeSum[m] > 1 {
			t.Errorf("%s: %s leaves %.0f EPE violations over the clips, want at most 1", name, m, epeSum[m])
		}
	}
	var worse []string
	for _, row := range rows {
		tc, m := row["testcase"], row["method"]
		if (m == "MOSAIC_fast" || m == "MOSAIC_exact") && quality[tc+" "+m] > quality[tc+" RuleBased"] {
			worse = append(worse, tc+" "+m)
		}
	}
	t.Logf("%s: known failing expectation (ROADMAP item 10): %d MOSAIC cells end worse than their RuleBased init: %v", name, len(worse), worse)
}

// pwSums folds ablation_pw.csv into ΣEPE and ΣPVB per mode and β.
func pwSums(t *testing.T) map[string]map[float64][2]float64 {
	t.Helper()
	sums := map[string]map[float64][2]float64{}
	for _, row := range readRows(t, filepath.Join(archive, "ablation_pw.csv")) {
		m, beta := row["mode"], num(t, row, "beta")
		if sums[m] == nil {
			sums[m] = map[float64][2]float64{}
		}
		s := sums[m][beta]
		sums[m][beta] = [2]float64{s[0] + num(t, row, "epe_violations"), s[1] + num(t, row, "pvband_nm2")}
	}
	return sums
}

// TestArchivedTable2HoldsThePaperShape holds the archived Table 2
// (results/table2.csv) to the paper's shape, and logs whether the archived
// process-window sweep (results/ablation_pw.csv) shows the title claim:
// ΣPVB falls as β rises, at no worse ΣEPE. That is a known failing
// expectation (ROADMAP item 18), logged rather than failed until it holds.
func TestArchivedTable2HoldsThePaperShape(t *testing.T) {
	checkPaperShape(t, "results/table2.csv", readRows(t, filepath.Join(archive, "table2.csv")))

	sums := pwSums(t)
	var modes, broken []string
	for m := range sums {
		modes = append(modes, m)
	}
	sort.Strings(modes)
	for _, m := range modes {
		var betas []float64
		for b := range sums[m] {
			betas = append(betas, b)
		}
		sort.Float64s(betas)
		for i, b := range betas {
			s := sums[m][b]
			t.Logf("%s β=%g: ΣEPE %.0f, ΣPVB %.0f nm²", m, b, s[0], s[1])
			if i == 0 {
				continue
			}
			if prev := sums[m][betas[i-1]]; !(s[1] < prev[1] && s[0] <= prev[0]) {
				broken = append(broken, fmt.Sprintf("%s β %g→%g", m, betas[i-1], b))
			}
		}
	}
	if len(broken) > 0 {
		t.Logf("known failing expectation (ROADMAP item 18): ΣPVB does not fall at no worse ΣEPE as β rises in %v", broken)
	}
}

// TestFreshTable2MatchesTheArchive re-runs Table 2 and the B4 ablations at
// the archive's grid into a temporary directory. The fresh Table 2 must
// hold the paper's shape. Made under the archive's numeric generation
// (digest_version.txt), each fresh table must also reproduce every #EPE,
// PV band and shape cell of its results/ CSV, and a cell that differs
// fails by name. Across a cache.DigestVersion bump the moved cells are
// logged, old → new, for the change that bumps it to judge before it
// re-archives (make paper).
func TestFreshTable2MatchesTheArchive(t *testing.T) {
	if testing.Short() {
		t.Skip("a fresh Table 2 takes about half a minute")
	}
	if raceEnabled {
		t.Skip("a fresh Table 2 takes over four minutes under the race detector")
	}
	h, err := newHarness(t.TempDir(), paperGrid)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(archive, digestVersionFile))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := strconv.Atoi(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("results/%s: %v", digestVersionFile, err)
	}
	differ := t.Errorf
	if gen != cache.DigestVersion {
		differ = t.Logf
		t.Logf("results/ was made under DigestVersion %d, this build is %d: moved cells are logged, not failed", gen, cache.DigestVersion)
	}
	for _, tc := range []struct {
		file  string
		run   func() error
		key   []string // the columns that name a row
		cells []string // the runtime-free columns judged
		check func(*testing.T, string, []map[string]string)
	}{
		{"table2.csv", h.tables23, []string{"testcase", "method"},
			[]string{"epe_violations", "pvband_nm2", "shape_violations"}, checkPaperShape},
		{"ablations_B4.csv", h.ablations, []string{"variant"},
			[]string{"epe_violations", "pvband_nm2"}, nil},
	} {
		if err := tc.run(); err != nil {
			t.Fatal(err)
		}
		fresh := readRows(t, h.path(tc.file))
		if tc.check != nil {
			tc.check(t, "fresh "+tc.file, fresh)
		}
		key := func(row map[string]string) string {
			var k []string
			for _, col := range tc.key {
				k = append(k, row[col])
			}
			return strings.Join(k, " ")
		}
		byCell := func(rows []map[string]string) map[string]map[string]string {
			m := map[string]map[string]string{}
			for _, row := range rows {
				m[key(row)] = row
			}
			return m
		}
		archived := readRows(t, filepath.Join(archive, tc.file))
		old, cur := byCell(archived), byCell(fresh)
		for _, o := range archived {
			c, ok := cur[key(o)]
			if !ok {
				differ("%s: in results/%s, not in the fresh run", key(o), tc.file)
				continue
			}
			for _, col := range tc.cells {
				if a, b := num(t, o, col), num(t, c, col); a != b {
					differ("%s %s: results/%s %g → fresh %g", key(o), col, tc.file, a, b)
				}
			}
		}
		for _, c := range fresh {
			if _, ok := old[key(c)]; !ok {
				differ("%s: in the fresh run, not in results/%s", key(c), tc.file)
			}
		}
	}
}

// docTable returns the body rows of the first Markdown table under the
// EXPERIMENTS.md heading that starts with heading, each as trimmed cells
// with the bold and code marks removed.
func docTable(t *testing.T, doc, heading string) [][]string {
	t.Helper()
	_, section, ok := strings.Cut(doc, "\n## "+heading)
	if !ok {
		t.Fatalf("EXPERIMENTS.md has no %q section", heading)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	unmark := strings.NewReplacer("*", "", "`", "")
	var rows [][]string
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if len(rows) > 0 {
				break
			}
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i, c := range cells {
			cells[i] = strings.TrimSpace(unmark.Replace(c))
		}
		rows = append(rows, cells)
	}
	if len(rows) < 3 {
		t.Fatalf("EXPERIMENTS.md § %s has no table", heading)
	}
	return rows[2:] // header and separator
}

// docNum parses a number as EXPERIMENTS.md prints it ("33 832").
func docNum(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.ReplaceAll(s, " ", ""), 64)
	if err != nil {
		t.Fatalf("EXPERIMENTS.md: %v", err)
	}
	return v
}

// TestExperimentsQuotesTheArchive holds the runtime-free numbers of
// EXPERIMENTS.md to results/ both ways, as the route, flag and span-name
// tables are held to their code: every row of the Table 2 totals, the
// ablation table and the β sweep equals the archive, and every method,
// variant and (mode, β) of the archive has its row.
func TestExperimentsQuotesTheArchive(t *testing.T) {
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)

	// check holds every quoted row's numbers to the archive's, and every
	// archived key to a quoted row.
	check := func(what string, archived map[string][]float64, quoted map[string][]string) {
		t.Helper()
		for key, cells := range quoted {
			want, ok := archived[key]
			if !ok {
				t.Errorf("EXPERIMENTS.md quotes %s %q, which results/ does not have", what, key)
				continue
			}
			for i, w := range want {
				if got := docNum(t, cells[i]); got != w {
					t.Errorf("EXPERIMENTS.md %s %q column %d reads %g, results/ has %g", what, key, i+1, got, w)
				}
			}
		}
		for key := range archived {
			if _, ok := quoted[key]; !ok {
				t.Errorf("EXPERIMENTS.md has no %s row for %q", what, key)
			}
		}
	}

	totals := map[string][]float64{}
	for _, row := range readRows(t, filepath.Join(archive, "table2.csv")) {
		s := totals[row["method"]]
		if s == nil {
			s = make([]float64, 2)
			totals[row["method"]] = s
		}
		s[0] += num(t, row, "epe_violations")
		s[1] += num(t, row, "pvband_nm2")
	}
	quoted := map[string][]string{}
	for _, cells := range docTable(t, doc, "Table 2") {
		quoted[strings.Fields(cells[0])[0]] = cells[1:3]
	}
	check("Table 2 total", totals, quoted)

	variants := map[string][]float64{}
	for _, row := range readRows(t, filepath.Join(archive, "ablations_B4.csv")) {
		variants[row["variant"]] = []float64{num(t, row, "epe_violations"), num(t, row, "pvband_nm2"), num(t, row, "score")}
	}
	quoted = map[string][]string{}
	for _, cells := range docTable(t, doc, "Ablations") {
		quoted[strings.Fields(cells[0])[0]] = cells[1:4]
	}
	check("ablation", variants, quoted)

	sweep := map[string][]float64{}
	for m, byBeta := range pwSums(t) {
		for b, s := range byBeta {
			sweep[fmt.Sprintf("%s β=%g", m, b)] = []float64{s[0], s[1]}
		}
	}
	quoted = map[string][]string{}
	for _, cells := range docTable(t, doc, "Process-window weight") {
		quoted[fmt.Sprintf("%s β=%s", cells[0], cells[1])] = cells[2:4]
	}
	check("β sweep", sweep, quoted)
}

package exp

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rvpsim/internal/core"
	"rvpsim/internal/faultinject"
	"rvpsim/internal/isa"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/profile"
	"rvpsim/internal/regalloc"
	"rvpsim/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/fingerprint.txt with the current behaviour")

const fingerprintPath = "testdata/fingerprint.txt"

const fingerprintHeader = `# Behaviour fingerprint of rvpsim: every pin outside the benchmark.
# cell <group>/<workload>/<series> [base=<same machine, no prediction>] <Field=value for every pipeline.Stats field>
# Blocks (profile|realloc <workload>, partial <fault plan>) hold indented lines.
# After a deliberate model change: go test ./internal/exp -run TestFingerprint -update
`

// A fingerprint is every behaviour pin outside the benchmark as named
// records of text, in order: a cell ("cell <name>") is one line of Stats
// fields, a profile, re-allocation or set of partial tables a block.
type fingerprint struct {
	names []string
	lines map[string][]string
}

func newFingerprint() *fingerprint { return &fingerprint{lines: map[string][]string{}} }

func (f *fingerprint) add(name string, lines ...string) {
	f.names = append(f.names, name)
	f.lines[name] = lines
}

func (f *fingerprint) String() string {
	var b strings.Builder
	b.WriteString(fingerprintHeader)
	for _, n := range f.names {
		if strings.HasPrefix(n, "cell ") {
			b.WriteString(n + " " + f.lines[n][0] + "\n")
			continue
		}
		b.WriteString(n + "\n")
		for _, l := range f.lines[n] {
			b.WriteString("  " + l + "\n")
		}
	}
	return b.String()
}

func parseFingerprint(s string) *fingerprint {
	f := newFingerprint()
	block := ""
	for _, line := range strings.Split(strings.TrimSuffix(s, "\n"), "\n") {
		switch {
		case block != "" && strings.HasPrefix(line, "  "):
			f.lines[block] = append(f.lines[block], line[2:])
		case line == "" || strings.HasPrefix(line, "#"):
			block = ""
		case strings.HasPrefix(line, "cell "):
			name, fields, _ := strings.Cut(line[len("cell "):], " ")
			f.add("cell "+name, fields)
			block = ""
		default:
			f.add(line)
			block = line
		}
	}
	return f
}

// cellLine prints every Stats field as Name=value, after base=<cell>
// when the cell has a no-prediction cell on the same machine. (Stats'
// String method, which %+v would call, omits most fields.)
func cellLine(base string, st pipeline.Stats) string {
	var fields []string
	if base != "" {
		fields = append(fields, "base="+base)
	}
	v := reflect.ValueOf(st)
	for i := 0; i < v.NumField(); i++ {
		fields = append(fields, fmt.Sprintf("%s=%d", v.Type().Field(i).Name, v.Field(i).Interface()))
	}
	return strings.Join(fields, " ")
}

// parseCell reads a cellLine back; it fails unless the Stats prints as
// the same line.
func parseCell(line string) (base string, st pipeline.Stats, err error) {
	v := reflect.ValueOf(&st).Elem()
	for _, kv := range strings.Fields(line) {
		k, val, _ := strings.Cut(kv, "=")
		fv, n := v.FieldByName(k), int64(0)
		switch {
		case k == "base":
			base = val
		case !fv.IsValid():
			err = fmt.Errorf("%s: no such Stats field", kv)
		default:
			if n, err = strconv.ParseInt(val, 10, 64); err == nil {
				fv.Set(reflect.ValueOf(n).Convert(fv.Type()))
			}
		}
		if err != nil {
			return base, st, err
		}
	}
	if back := cellLine(base, st); back != line {
		err = fmt.Errorf("reads back as %s", back)
	}
	return base, st, err
}

// diffFingerprints reports what moved from old to cur, "" when nothing
// did: every field of a changed cell as old → new (Δ) with its IPC and
// its speedup over its base, the changed lines of a changed block, and
// the records only one side has.
func diffFingerprints(old, cur *fingerprint) string {
	var b strings.Builder
	moved := 0
	for _, n := range cur.names {
		ol, ok := old.lines[n]
		switch {
		case !ok:
			fmt.Fprintf(&b, "new %s\n", n)
		case slices.Equal(ol, cur.lines[n]):
			continue
		case strings.HasPrefix(n, "cell "):
			fmt.Fprintf(&b, "changed %s\n%s", n, diffCell(old, cur, n))
		default:
			fmt.Fprintf(&b, "changed %s\n%s", n, diffLines(ol, cur.lines[n]))
		}
		moved++
	}
	for _, n := range old.names {
		if _, ok := cur.lines[n]; !ok {
			fmt.Fprintf(&b, "missing %s\n", n)
			moved++
		}
	}
	if moved == 0 {
		return ""
	}
	return fmt.Sprintf("%d of %d records moved\n%s", moved, len(old.names), b.String())
}

func diffCell(old, cur *fingerprint, name string) string {
	var b strings.Builder
	base, o, err := parseCell(old.lines[name][0])
	if err != nil {
		return fmt.Sprintf("    unreadable before: %v\n", err)
	}
	_, c, _ := parseCell(cur.lines[name][0])
	ov, cv, i64 := reflect.ValueOf(o), reflect.ValueOf(c), reflect.TypeOf(int64(0))
	for i := 0; i < ov.NumField(); i++ {
		if a, z := ov.Field(i).Convert(i64).Int(), cv.Field(i).Convert(i64).Int(); a != z {
			fmt.Fprintf(&b, "    %-14s %d → %d (%+d)\n", ov.Type().Field(i).Name, a, z, z-a)
		}
	}
	fmt.Fprintf(&b, "    %-14s %.4f → %.4f (%+.4f)\n", "IPC", o.IPC(), c.IPC(), c.IPC()-o.IPC())
	if ob, cb := old.lines["cell "+base], cur.lines["cell "+base]; base != "" && ob != nil && cb != nil {
		_, obs, _ := parseCell(ob[0])
		_, cbs, _ := parseCell(cb[0])
		so, sc := float64(obs.Cycles)/float64(o.Cycles), float64(cbs.Cycles)/float64(c.Cycles)
		fmt.Fprintf(&b, "    %-14s %.4f → %.4f (%+.4f) over %s\n", "speedup", so, sc, sc-so, base)
	}
	return b.String()
}

// diffLines lists the first ten positions where two blocks differ.
func diffLines(old, cur []string) string {
	var b strings.Builder
	at := func(l []string, i int) string {
		if i < len(l) {
			return l[i]
		}
		return "(no line)"
	}
	n := 0
	for i := range max(len(old), len(cur)) {
		if o, c := at(old, i), at(cur, i); o != c {
			if n++; n <= 10 {
				fmt.Fprintf(&b, "    line %d\n    - %s\n    + %s\n", i+1, o, c)
			}
		}
	}
	if n > 10 {
		fmt.Fprintf(&b, "    ... %d more lines differ (%d lines before, %d now)\n", n-10, len(old), len(cur))
	}
	return b.String()
}

// TestFingerprint recomputes every pinned cell, profile, re-allocation
// and partial table and compares them with testdata/fingerprint.txt. A
// mismatch lists what moved; -update rewrites the file. Measuring also
// checks what the pins exist for: one predict port starves predictions,
// every cell commits exactly its budget, and every fault plan leaves
// every grid driver with an error.
func TestFingerprint(t *testing.T) {
	cur := newFingerprint()
	for _, part := range []func(*fingerprint) error{machinesPart, figurePart, compilerPart, partialPart} {
		if err := part(cur); err != nil {
			t.Fatal(err)
		}
	}
	text := cur.String()
	if !reflect.DeepEqual(parseFingerprint(text), cur) {
		t.Fatal("the fingerprint text does not read back")
	}
	for _, n := range cur.names {
		if !strings.HasPrefix(n, "cell ") {
			continue
		}
		if _, _, err := parseCell(cur.lines[n][0]); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
	}
	if *update {
		if err := os.WriteFile(fingerprintPath, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(fingerprintPath)
	if err != nil {
		t.Fatalf("%v (record it with go test ./internal/exp -run TestFingerprint -update)", err)
	}
	if d := diffFingerprints(parseFingerprint(string(raw)), cur); d != "" {
		t.Errorf("behaviour moved from %s:\n%s\nIf the change is deliberate, rerun with -update.", fingerprintPath, d)
	}
}

// fpInsts is the budget of every pinned and figure cell.
const fpInsts = 100_000

func rvp() core.Predictor { return core.MustDynamicRVP(core.DefaultCounterConfig()) }

// machinesPart runs the cells the figures do not reach: the predict-port
// ablation (the only user of the port book), the 16-wide machine under
// every recovery, warm starts, a li run that grows the issue books inside
// the run loop, hydro2d with one port under reissue, and li with every
// load predicted from its own last value.
func machinesPart(f *fingerprint) error {
	var errs []error
	cell := func(r *Runner, name, base, w string, cfg pipeline.Config, pred core.Predictor) pipeline.Stats {
		st, err := r.run(w, cfg, pred)
		if err == nil && st.Committed != r.opts.Insts {
			err = fmt.Errorf("committed %d of its %d budget", st.Committed, r.opts.Insts)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
		}
		f.add("cell "+name, cellLine(base, st))
		return st
	}
	cold := NewRunner(Options{Insts: fpInsts})
	var starved uint64
	for _, ports := range []int{1, 2} {
		cfg := pipeline.BaselineConfig()
		cfg.PredictPorts = ports
		for _, w := range allNames() {
			st := cell(cold, fmt.Sprintf("pinned/ports%d/%s/rvp", ports, w), "", w, cfg, rvp())
			if ports == 1 {
				starved += st.PortStarved
			}
		}
	}
	if starved == 0 {
		errs = append(errs, errors.New("one predict port starved no prediction: the port book is not exercised"))
	}
	for _, rec := range []pipeline.Recovery{pipeline.RecoverRefetch, pipeline.RecoverReissue, pipeline.RecoverSelective} {
		cfg := pipeline.AggressiveConfig()
		cfg.Recovery = rec
		for _, w := range allNames() {
			cell(cold, "pinned/aggressive/"+rec.String()+"/"+w+"/rvp", "", w, cfg, rvp())
		}
	}

	warm := NewRunner(Options{Insts: fpInsts, WarmupInsts: 150_000})
	for _, w := range []string{"li", "mgrid"} {
		for i, cfg := range []pipeline.Config{pipeline.BaselineConfig(), pipeline.AggressiveConfig()} {
			p := "warm/" + []string{"baseline", "aggressive"}[i] + "/" + w + "/"
			cell(warm, p+"none", "", w, cfg, core.NoPredictor{})
			cell(warm, p+"drvp", p+"none", w, cfg, rvp())
			cell(warm, p+"lvp", p+"none", w, cfg, core.MustLVP(core.DefaultLVPConfig(), "lvp"))
		}
	}

	growth := NewRunner(Options{Insts: 40_000, Faults: map[string]faultinject.Config{"li": {MemEvery: 1000, MemExtra: 3000}}})
	cell(growth, "issue_growth/li/rvp", "", "li", pipeline.BaselineConfig(), rvp())
	short := NewRunner(Options{Insts: 60_000})
	oneReissue := pipeline.BaselineConfig()
	oneReissue.PredictPorts = 1
	oneReissue.Recovery = pipeline.RecoverReissue
	cell(short, "fixed_ring/hydro2d/rvp", "", "hydro2d", oneReissue, rvp())
	li, err := short.Program("li")
	if err != nil {
		return err
	}
	hints, marked := core.ReuseHints{}, map[int]bool{}
	for i, in := range li.Insts {
		if isa.IsLoad(in.Op) && in.WritesReg() {
			hints[i] = core.ReuseHint{Kind: core.KindLastValue}
			marked[i] = true
		}
	}
	cell(short, "last_value/li/drvp", "", "li", pipeline.BaselineConfig(),
		core.MustDynamicRVP(core.DefaultCounterConfig(), core.WithHints(hints)))
	cell(short, "last_value/li/static", "", "li", pipeline.BaselineConfig(), core.NewStaticRVP("static", marked, hints))
	return errors.Join(errs...)
}

// figurePart runs every grid driver as experiments -n 100000 does and
// names each distinct cell after the first driver, workload and series
// that asks for it.
func figurePart(f *fingerprint) error {
	r := NewRunner(Options{Insts: fpInsts, ProfileInsts: fpInsts / 4, Threshold: 0.80, Parallel: true})
	named := map[string]string{} // cell key → name
	cell := func(key, name, base string, st pipeline.Stats) string {
		if n, ok := named[key]; ok {
			return n
		}
		named[key] = name
		f.add("cell "+name, cellLine(base, st))
		return name
	}
	var fig string
	var errs []error
	// A measured cell's program and predictor were built once already,
	// so building them again cannot fail.
	r.gridDone = func(g *grid, base *pipeline.Config) {
		for w, wname := range g.names {
			own, _ := r.Program(wname)
			prefix, baseName := fig+"/"+wname+"/", ""
			if base != nil {
				baseName = cell(r.cellKey(own, core.NoPredictor{}, *base), prefix+"base", "", g.base[w])
			}
			for j, st := range g.cells[w] {
				s, prog := g.rows[j], own
				if s.prog != nil {
					prog, _ = s.prog(wname)
				}
				pred, _ := s.pred(wname)
				cell(r.cellKey(prog, pred.(core.Identified), s.cfg), prefix+strings.ReplaceAll(s.label, " ", "_"), baseName, st)
			}
		}
	}
	for _, d := range gridDrivers {
		fig = d.name
		_, err := d.run(r)
		errs = append(errs, err)
	}
	// The names cover exactly the cells the runner simulated.
	if len(named) != len(r.cells) {
		errs = append(errs, fmt.Errorf("named %d figure cells, the runner simulated %d", len(named), len(r.cells)))
	}
	return errors.Join(errs...)
}

// compilerPart keeps each workload's 500k profile (every InstStats, the
// totals, the lists at 0.80 and 0.90) and its re-allocation at 0.80 (the
// rewritten instructions, the workload supplying the rest, the counts
// and the dropped reuses in pruning order).
func compilerPart(f *fingerprint) error {
	for _, w := range allNames() {
		prog, err := workloads.ByName(w)
		if err != nil {
			return err
		}
		pr, err := profile.Run(prog, profile.Options{MaxInsts: 500_000})
		if err != nil {
			return fmt.Errorf("profile %s: %w", w, err)
		}
		lines := []string{fmt.Sprintf("total=%d loads=%d", pr.Total, pr.Loads)}
		for i := range prog.Insts { // pr.Insts is keyed by static index
			if st, ok := pr.Insts[i]; ok {
				lines = append(lines, fmt.Sprintf("%d %+v", i, *st))
			}
		}
		for _, th := range []float64{0.80, 0.90} {
			for _, loads := range []bool{false, true} {
				l := pr.Lists(th, loads, 0)
				// fmt prints maps with sorted keys.
				lines = append(lines, fmt.Sprintf("lists %.2f %v", th, loads), fmt.Sprintf("same %v", l.Same),
					fmt.Sprintf("dead %v", l.Dead), fmt.Sprintf("live %v", l.Live), fmt.Sprintf("lv %v", l.LV))
			}
		}
		f.add("profile "+w, lines...)

		res, err := regalloc.Reallocate(prog, pr, pr.Lists(0.80, false, 0))
		if err != nil {
			return fmt.Errorf("realloc %s: %w", w, err)
		}
		lines = nil
		for i, in := range res.Prog.Insts {
			if in != prog.Insts[i] {
				lines = append(lines, fmt.Sprintf("%d %+v", i, in))
			}
		}
		lines = append(lines, fmt.Sprintf("dead %d/%d lv %d/%d", res.DeadApplied, res.DeadDropped, res.LVApplied, res.LVDropped))
		for _, d := range res.Dropped {
			lines = append(lines, fmt.Sprintf("dropped %+v", d))
		}
		f.add("realloc "+w, lines...)
	}
	return nil
}

// partialFaults leave tables partial: a workload failing on its first
// run, one failing part-way through its series (a 20k run passes about
// 21 commit batches), a failure and a panic at once, and a transient
// fault retried into a later failure.
var partialFaults = []struct {
	name   string
	faults map[string]faultinject.Config
}{
	{"li_fail1", map[string]faultinject.Config{"li": {FailAfter: 1}}},
	{"mgrid_fail45", map[string]faultinject.Config{"mgrid": {FailAfter: 45}}},
	{"hydro2d_fail70_go_panic30", map[string]faultinject.Config{"hydro2d": {FailAfter: 70}, "go": {PanicAfter: 30}}},
	{"su2cor_transient1_fail50", map[string]faultinject.Config{"su2cor": {Transient: 1, FailAfter: 50}}},
}

// partialPart keeps every grid driver's tables and joined error at 20k
// under each fault plan, each driver on a fresh Runner. A fault injector
// counts its workload's commit batches across runs, so the text also
// pins the order of each workload's cells. Every driver must fail.
func partialPart(f *fingerprint) error {
	for _, fc := range partialFaults {
		var out strings.Builder
		for _, d := range gridDrivers {
			r := NewRunner(Options{Insts: 20_000, ProfileInsts: 5_000, Threshold: 0.80, Parallel: true, Faults: fc.faults})
			tables, err := d.run(r)
			if err == nil {
				return fmt.Errorf("partial %s: %s: no error under injected faults", fc.name, d.name)
			}
			for _, tab := range tables {
				out.WriteString(tab.String())
			}
			out.WriteString(err.Error() + "\n")
		}
		f.add("partial "+fc.name, strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")...)
	}
	return nil
}

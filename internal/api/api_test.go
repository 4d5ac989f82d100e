package api

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/scengen"
)

func suiteSpec(filter string) JobSpec {
	return JobSpec{
		SchemaVersion: SchemaVersion,
		Kind:          KindSuite,
		Suite:         &SuiteSpec{Filter: filter, Quick: true},
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*JobSpec)
		wantErr string
	}{
		{"valid suite", func(s *JobSpec) {}, ""},
		{"zero schema version ok", func(s *JobSpec) { s.SchemaVersion = 0 }, ""},
		{"wrong schema version", func(s *JobSpec) { s.SchemaVersion = 99 }, "schema_version"},
		{"no payload", func(s *JobSpec) { s.Suite = nil }, "exactly one"},
		{"two payloads", func(s *JobSpec) { s.Fuzz = &FuzzSpec{N: 1} }, "exactly one"},
		{"kind/payload mismatch", func(s *JobSpec) {
			s.Kind = KindFuzz
		}, "without a fuzz payload"},
		{"unknown kind", func(s *JobSpec) { s.Kind = "bogus" }, "unknown job kind"},
		{"negative workers", func(s *JobSpec) { s.Workers = -1 }, "workers"},
		{"negative sweep", func(s *JobSpec) { s.Suite.Sweep = -2 }, "sweep"},
		{"scenario needs text", func(s *JobSpec) {
			s.Kind, s.Suite, s.Scenario = KindScenario, nil, &ScenarioSpec{}
		}, "without text"},
		{"fuzz needs n", func(s *JobSpec) {
			s.Kind, s.Suite, s.Fuzz = KindFuzz, nil, &FuzzSpec{}
		}, "n > 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := suiteSpec("E01")
			tc.mutate(&spec)
			err := spec.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestRetiredSchedulerKeyIgnored: specs written for schema 3 before the
// engine had a single calendar may still carry "scheduler"; it decodes like
// any unknown key and the spec stays valid.
func TestRetiredSchedulerKeyIgnored(t *testing.T) {
	var s JobSpec
	raw := `{"schema_version":3,"kind":"suite","suite":{"filter":"E01"},"scheduler":"heap"}`
	if err := json.Unmarshal([]byte(raw), &s); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
}

func TestExpandSuiteSweep(t *testing.T) {
	spec := suiteSpec("^E01$")
	spec.Suite.Sweep = 3
	e, err := Expand(spec, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Jobs) != 3 {
		t.Fatalf("got %d jobs, want 3", len(e.Jobs))
	}
	wantLabels := []string{"E01", "E01#1", "E01#2"}
	for i, j := range e.Jobs {
		if j.Label() != wantLabels[i] {
			t.Errorf("job %d label %q, want %q", i, j.Label(), wantLabels[i])
		}
		if j.SweepIndex != i {
			t.Errorf("job %d sweep index %d, want %d", i, j.SweepIndex, i)
		}
	}
}

func TestExpandRejects(t *testing.T) {
	if _, err := Expand(suiteSpec("no-such-experiment-zzz"), Env{}); err == nil {
		t.Error("Expand matched nothing but did not error")
	}
	bad := suiteSpec("E01")
	bad.Suite.Filter = "["
	if _, err := Expand(bad, Env{}); err == nil {
		t.Error("Expand accepted an invalid filter regexp")
	}
	scen := JobSpec{Kind: KindScenario, Scenario: &ScenarioSpec{Text: "not a scenario {{{"}}
	if _, err := Expand(scen, Env{}); err == nil {
		t.Error("Expand accepted unparseable scenario text")
	}
}

func TestExpandTraceAttachesRecorders(t *testing.T) {
	e, err := Expand(suiteSpec("^E01$"), Env{Trace: true, TraceRingCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	if e.Jobs[0].Opts.Trace == nil {
		t.Fatal("Trace env did not attach a flight recorder")
	}
	e2, err := Expand(suiteSpec("^E01$"), Env{})
	if err != nil {
		t.Fatal(err)
	}
	if e2.Jobs[0].Opts.Trace != nil {
		t.Fatal("recorder attached without Trace env")
	}
}

// TestExpandScenario runs a tiny scenario end to end through the expansion
// and checks violations surface on the converted result.
func TestExpandScenario(t *testing.T) {
	// A generated scenario guarantees valid simconfig text without pinning
	// this test to the dialect's syntax.
	fam, err := scengen.ParseFamily("parkinglot")
	if err != nil {
		t.Fatal(err)
	}
	_, text, err := scengen.Generate(fam, scengen.DeriveSeed(fam, 0))
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{
		Kind:     KindScenario,
		Scenario: &ScenarioSpec{Text: text, Name: "tiny"},
	}
	e, err := Expand(spec, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Jobs) != 1 {
		t.Fatalf("got %d jobs, want 1", len(e.Jobs))
	}
	fleet := &runner.Fleet{Workers: 1}
	results, stats := fleet.Run(e.Jobs)
	rep, err := e.Finish(results, stats)
	if err != nil {
		t.Fatal(err)
	}
	rr := rep.Results[0]
	if rr.ID != "tiny" {
		t.Errorf("result ID %q, want tiny", rr.ID)
	}
	if rr.Error != "" {
		t.Fatalf("scenario failed: %s", rr.Error)
	}
	if _, ok := rr.Summary["violations"]; !ok {
		t.Error("scenario summary missing violations metric")
	}
	found := false
	for _, n := range rr.Notes {
		if strings.HasPrefix(n, "fingerprint: ") {
			found = true
		}
	}
	if !found {
		t.Errorf("scenario notes %v missing fingerprint", rr.Notes)
	}
}

// TestReportRoundTrip pins the v3 wire shape: a report survives a JSON
// round trip with its schema version intact.
func TestReportRoundTrip(t *testing.T) {
	rep := NewReport(KindSuite, []RunResult{{ID: "E01", SimNS: 123, Summary: map[string]float64{"x": 1}}}, runner.Stats{Runs: 1, Workers: 2})
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.SchemaVersion != SchemaVersion {
		t.Errorf("schema version %d, want %d", back.SchemaVersion, SchemaVersion)
	}
	if back.Kind != KindSuite || len(back.Results) != 1 || back.Results[0].ID != "E01" {
		t.Errorf("round trip mangled report: %+v", back)
	}
	if back.Stats.Workers != 2 {
		t.Errorf("stats lost in round trip: %+v", back.Stats)
	}
}

func TestNewClientNormalizesAddr(t *testing.T) {
	cases := map[string]string{
		":8080":                  "http://localhost:8080",
		"example.com:9999":       "http://example.com:9999",
		"http://example.com/":    "http://example.com",
		"https://phantom.lan:81": "https://phantom.lan:81",
	}
	for in, want := range cases {
		if got := NewClient(in).Base; got != want {
			t.Errorf("NewClient(%q).Base = %q, want %q", in, got, want)
		}
	}
}

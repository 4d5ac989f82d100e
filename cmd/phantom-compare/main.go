// Command phantom-compare prints the Section 5 head-to-head comparison of
// the four constant-space rate-control algorithms (Phantom, EPRCA, APRC,
// CAPC) and the CAPC-vs-Phantom detail of Fig. 22. Both experiments run
// concurrently on the fleet runner; output order stays fixed because the
// fleet returns results in job order regardless of completion order.
//
// Usage:
//
//	phantom-compare [-duration 600ms] [-j N]
package main

import (
	"fmt"

	"repro/internal/cli"
	"repro/internal/exp"
	"repro/internal/runner"
)

func main() {
	c := cli.New("phantom-compare",
		cli.FlagDuration|cli.FlagWorkers|cli.FlagProfile)
	c.Parse()

	jobs := make([]runner.Job, 0, 2)
	for _, id := range []string{"E17", "E16"} {
		def, ok := exp.Get(id)
		if !ok {
			c.Fatal(fmt.Errorf("%s not registered", id))
		}
		opts := c.Options()
		opts.Quiet = false
		jobs = append(jobs, runner.Job{Def: def, Opts: opts})
	}

	fleet := &runner.Fleet{Workers: c.Workers}
	results, _ := fleet.Run(jobs)
	for _, r := range results {
		def := r.Job.Def
		fmt.Printf("== %s (%s): %s\n", def.ID, def.PaperRef, def.Title)
		if r.Err != nil {
			c.Fatal(r.Err)
		}
		for _, t := range r.Res.Tables {
			fmt.Println(t)
		}
		for _, f := range r.Res.Figures {
			fmt.Println(f)
		}
		for _, n := range r.Res.Notes {
			fmt.Printf("  • %s\n", n)
		}
		fmt.Println()
	}
	c.Close()
}

// Command phantom-atm runs the ATM/ABR experiments of the Phantom
// reproduction and prints the paper's figures as ASCII charts.
//
// Usage:
//
//	phantom-atm -list
//	phantom-atm -exp E01 [-duration 400ms] [-quiet]
//	phantom-atm -all
package main

import (
	"flag"

	"repro/internal/cli"
)

var atmIDs = []string{"E01", "E02", "E03", "E04", "E05", "E06", "E07", "E08",
	"E14", "E15", "E16", "E17", "E18", "E21", "E22", "A01", "A02", "A03", "A04", "A05"}

// aliases maps informal names (fig3, table1) onto experiment IDs.
var aliases = map[string]string{
	"fig3": "E01", "fig4": "E02", "fig5": "E03", "fig6": "E04",
	"fig7": "E05", "fig8": "E05", "fig9": "E06", "fig11": "E07",
	"table1": "E08", "fig19": "E14", "fig20": "E14", "fig21": "E15",
	"fig22": "E16", "table2": "E17", "exact": "E18", "gfc": "E21", "scaling": "E22",
}

func main() {
	c := cli.New("phantom-atm",
		cli.FlagDuration|cli.FlagQuiet|cli.FlagJSON|cli.FlagProfile|cli.FlagTelemetry|cli.FlagTrace)
	list := flag.Bool("list", false, "list available experiments")
	id := flag.String("exp", "", "experiment ID to run (e.g. E01, or a paper ref like fig3)")
	all := flag.Bool("all", false, "run every ATM experiment (E01–E08, E14–E17, A01–A03)")
	c.Parse()

	switch {
	case *list:
		cli.ListExperiments(atmIDs)
	case *all:
		for _, eid := range atmIDs {
			if err := c.RunExperiment(eid); err != nil {
				c.Fatal(err)
			}
		}
	case *id != "":
		if err := c.RunExperiment(cli.Resolve(aliases, *id)); err != nil {
			c.Fatal(err)
		}
	default:
		c.Usage()
	}
	c.Close()
}

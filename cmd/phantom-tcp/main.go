// Command phantom-tcp runs the TCP/router experiments of the Phantom
// reproduction (Section 4 of the paper): drop-tail vs Selective Discard,
// beat-down, Source Quench, ECN marking and Selective RED.
//
// Usage:
//
//	phantom-tcp -list
//	phantom-tcp -exp E09 [-duration 10s] [-quiet]
//	phantom-tcp -all
package main

import (
	"flag"

	"repro/internal/cli"
)

var tcpIDs = []string{"E09", "E10", "E11", "E12", "E13", "E19", "E20"}

var aliases = map[string]string{
	"fig14": "E09", "fig17": "E10", "fig18": "E11",
	"quench": "E12", "ecn": "E12", "red": "E13",
	"vegas": "E19", "interop": "E20", "atm": "E20",
}

func main() {
	c := cli.New("phantom-tcp",
		cli.FlagDuration|cli.FlagQuiet|cli.FlagJSON|cli.FlagProfile|cli.FlagTelemetry|cli.FlagTrace)
	list := flag.Bool("list", false, "list available experiments")
	id := flag.String("exp", "", "experiment ID to run (e.g. E09, fig14)")
	all := flag.Bool("all", false, "run every TCP experiment (E09–E13)")
	c.Parse()

	switch {
	case *list:
		cli.ListExperiments(tcpIDs)
	case *all:
		for _, eid := range tcpIDs {
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

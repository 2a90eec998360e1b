// Command vnetbench regenerates the paper's evaluation: every table and
// figure (DESIGN.md's per-experiment index) runs as a deterministic
// simulation and prints rows shaped like the paper's.
//
// Usage:
//
//	vnetbench -list
//	vnetbench -exp fig8
//	vnetbench -all
//
// The live node is measured by the end-to-end benchmark under
// benchmark/ (see its README), not here.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"vnetp/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiment IDs")
	exp := flag.String("exp", "", "run one experiment by ID")
	all := flag.Bool("all", false, "run every experiment")
	flag.Parse()

	switch {
	case *list:
		for _, e := range experiments.All() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
	case *exp != "":
		if err := experiments.Run(*exp, os.Stdout); err != nil {
			log.Fatalf("vnetbench: %v", err)
		}
	case *all:
		if err := experiments.RunAll(os.Stdout); err != nil {
			log.Fatalf("vnetbench: %v", err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

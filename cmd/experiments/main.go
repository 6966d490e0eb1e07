// Command experiments regenerates every table and figure of the paper's
// evaluation section at a chosen scale, printing paper-style rows.
//
// Usage:
//
//	experiments -scale=ci -run=all
//	experiments -scale=paper -run=fig11
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"echoimage/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	scaleName := flag.String("scale", "ci", "experiment scale: quick, ci or paper")
	runList := flag.String("run", "all", "comma-separated experiments: table1,fig5,fig8,fig11,fig12,fig13,fig14,replay,sessions,singleuser,gateroc,ablation,scaleid or all")
	flag.Parse()

	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.Quick()
	case "ci":
		scale = experiments.CI()
	case "paper":
		scale = experiments.Paper()
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	want := map[string]bool{}
	for _, name := range strings.Split(*runList, ",") {
		want[strings.TrimSpace(name)] = true
	}
	all := want["all"]
	out := os.Stdout

	step := func(name string, f func() error) error {
		if !all && !want[name] {
			return nil
		}
		start := time.Now()
		fmt.Fprintf(out, "==== %s (scale %s) ====\n", name, scale.Name)
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(out, "---- %s done in %s ----\n\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}

	if err := step("table1", func() error {
		experiments.TableI().Write(out)
		return nil
	}); err != nil {
		return err
	}
	if err := step("fig5", func() error {
		r, err := experiments.Figure5(scale)
		if err != nil {
			return err
		}
		r.Write(out)
		return nil
	}); err != nil {
		return err
	}
	if err := step("fig8", func() error {
		r, err := experiments.Figure8(ctx, scale)
		if err != nil {
			return err
		}
		r.Write(out)
		return nil
	}); err != nil {
		return err
	}
	if err := step("fig11", func() error {
		r, err := experiments.Figure11(ctx, scale)
		if err != nil {
			return err
		}
		r.Write(out)
		return nil
	}); err != nil {
		return err
	}
	if err := step("fig12", func() error {
		r, err := experiments.Figure12(ctx, scale)
		if err != nil {
			return err
		}
		r.Write(out)
		return nil
	}); err != nil {
		return err
	}
	if err := step("fig13", func() error {
		r, err := experiments.Figure13(ctx, scale)
		if err != nil {
			return err
		}
		r.Write(out)
		return nil
	}); err != nil {
		return err
	}
	if err := step("fig14", func() error {
		r, err := experiments.Figure14(ctx, scale)
		if err != nil {
			return err
		}
		r.Write(out)
		return nil
	}); err != nil {
		return err
	}
	if err := step("replay", func() error {
		r, err := experiments.ReplayAttack(ctx, scale)
		if err != nil {
			return err
		}
		r.Write(out)
		return nil
	}); err != nil {
		return err
	}
	if err := step("sessions", func() error {
		r, err := experiments.SessionStability(ctx, scale)
		if err != nil {
			return err
		}
		r.Write(out)
		return nil
	}); err != nil {
		return err
	}
	if err := step("singleuser", func() error {
		r, err := experiments.SingleUser(ctx, scale)
		if err != nil {
			return err
		}
		r.Write(out)
		return nil
	}); err != nil {
		return err
	}
	if err := step("gateroc", func() error {
		r, err := experiments.GateROC(ctx, scale)
		if err != nil {
			return err
		}
		r.Write(out)
		return nil
	}); err != nil {
		return err
	}
	if err := step("ablation", func() error {
		rows, err := experiments.RangingAblation(scale, 6)
		if err != nil {
			return err
		}
		experiments.WriteRangingAblation(out, rows)
		fmt.Fprintln(out)
		arows, err := experiments.AuthAblation(ctx, scale)
		if err != nil {
			return err
		}
		experiments.WriteAuthAblation(out, arows)
		return nil
	}); err != nil {
		return err
	}
	if err := step("scaleid", func() error {
		// Beyond-paper study: synthetic-enrollee identification scale.
		// quick=10k, ci=100k, paper=1M registered users.
		cfg := experiments.ScaleID100k()
		switch scale.Name {
		case "quick":
			cfg = experiments.ScaleID10k()
		case "paper":
			cfg = experiments.ScaleID1M()
		}
		r, err := experiments.RunScaleID(cfg)
		if err != nil {
			return err
		}
		r.Write(out)
		return nil
	}); err != nil {
		return err
	}
	return nil
}

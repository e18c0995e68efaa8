// Package cli holds the shared scaffolding of this repository's commands.
// Every cmd/*/main.go is a thin shell: the logic lives in a testable
// run(args, stdout) error function, adapted to process-exit semantics by
// Main, with flag parsing routed through Parse so -h exits 0 with usage
// and flag diagnostics are printed exactly once. A command with several
// modes is a table of Commands behind Dispatch, one flag set per mode.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// ErrUsage signals a flag-parse failure whose diagnostic the flag package
// already printed to stderr; Main exits 2 without reprinting it.
var ErrUsage = errors.New("usage error")

// ErrReported signals a failure the run function already reported on
// stderr; Main exits 1 without printing anything further.
var ErrReported = errors.New("error already reported")

// Parse runs fs over args. -h and -help print usage and surface as
// flag.ErrHelp (a clean exit under Main); any other parse error surfaces
// as ErrUsage, its diagnostic already printed by the flag package.
func Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return flag.ErrHelp
		}
		return ErrUsage
	}
	return nil
}

// Usagef reports a usage-level mistake (bad arguments rather than a
// runtime failure): it prints the diagnostic to stderr and returns
// ErrUsage so Main exits 2 without reprinting it.
func Usagef(format string, args ...any) error {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	return ErrUsage
}

// Main adapts a run function to exit codes: 0 on success or -h, 2 on
// usage errors, 1 otherwise.
func Main(run func(args []string, stdout io.Writer) error) {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil || errors.Is(err, flag.ErrHelp):
	case errors.Is(err, ErrUsage):
		os.Exit(2)
	case errors.Is(err, ErrReported):
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// Command is one subcommand of a multi-mode binary. Setup defines the
// command's flags on fs — its own set, so the flags a mode accepts are
// exactly the ones it reads — and returns the function that runs the command
// once they are parsed.
type Command struct {
	Name    string
	Summary string
	Setup   func(fs *flag.FlagSet) func(stdout io.Writer) error
}

// Dispatch returns the run function of a binary whose first argument names
// one of cmds. Anything else in that position — nothing, a flag, an unknown
// name — prints the command list to stderr and is a usage error; help, -h
// and -help print it and exit clean. Arguments after the command's flags are
// refused: they would end flag parsing and silently drop every flag behind
// them.
func Dispatch(prog string, cmds []Command) func(args []string, stdout io.Writer) error {
	return func(args []string, stdout io.Writer) error {
		name := ""
		if len(args) > 0 {
			name = args[0]
		}
		for _, c := range cmds {
			if c.Name != name {
				continue
			}
			fs := flag.NewFlagSet(prog+" "+name, flag.ContinueOnError)
			run := c.Setup(fs)
			if err := Parse(fs, args[1:]); err != nil {
				return err
			}
			if fs.NArg() > 0 {
				return Usagef("%s: unexpected argument %q", fs.Name(), fs.Arg(0))
			}
			return run(stdout)
		}
		help := name == "help" || name == "-h" || name == "-help" || name == "--help"
		switch {
		case help:
		case name == "":
			fmt.Fprintf(os.Stderr, "%s: no command given\n", prog)
		case strings.HasPrefix(name, "-"):
			fmt.Fprintf(os.Stderr, "%s: flag %s before a command; flags follow the command name\n", prog, name)
		default:
			fmt.Fprintf(os.Stderr, "%s: unknown command %q\n", prog, name)
		}
		fmt.Fprintf(os.Stderr, "usage: %s <command> [flags]\n\ncommands:\n", prog)
		for _, c := range cmds {
			fmt.Fprintf(os.Stderr, "  %-12s%s\n", c.Name, c.Summary)
		}
		fmt.Fprintf(os.Stderr, "\n`%s <command> -h` lists a command's flags\n", prog)
		if help {
			return flag.ErrHelp
		}
		return ErrUsage
	}
}

// List is a comma-separated name list flag ("a,b" or "a, b"); a *[]string
// converts to it, so fs.Var((*List)(&names), ...) binds straight to a slice.
type List []string

func (l *List) String() string { return strings.Join(*l, ",") }
func (l *List) Set(s string) error {
	*l = strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' })
	return nil
}

// WriteCSVFile creates path and streams a report's CSV into it.
func WriteCSVFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

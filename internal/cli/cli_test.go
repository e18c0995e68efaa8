package cli

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Bool("ok", false, "a flag")
	return fs
}

func TestParseHelp(t *testing.T) {
	if err := Parse(newFlagSet(), []string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h -> %v, want flag.ErrHelp", err)
	}
}

func TestParseBadFlag(t *testing.T) {
	if err := Parse(newFlagSet(), []string{"-nope"}); !errors.Is(err, ErrUsage) {
		t.Fatalf("-nope -> %v, want ErrUsage", err)
	}
}

func TestParseOK(t *testing.T) {
	if err := Parse(newFlagSet(), []string{"-ok"}); err != nil {
		t.Fatalf("-ok -> %v", err)
	}
}

func TestWriteCSVFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	err := WriteCSVFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("a,b\n"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "a,b\n" {
		t.Fatalf("wrote %q", data)
	}
}

// TestDispatch checks the subcommand router: the named command gets its own
// flag set and the arguments after its name; anything else in the command
// position is a usage error (or a clean exit for help), as is an argument
// left over after the command's flags.
func TestDispatch(t *testing.T) {
	stderr := os.Stderr
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = null
	defer func() { os.Stderr = stderr; null.Close() }()

	var got string
	run := Dispatch("prog", []Command{
		{Name: "echo", Summary: "record -word", Setup: func(fs *flag.FlagSet) func(io.Writer) error {
			word := fs.String("word", "", "what to record")
			return func(io.Writer) error { got = fs.Name() + ":" + *word; return nil }
		}},
		{Name: "other", Summary: "takes no flags", Setup: func(*flag.FlagSet) func(io.Writer) error {
			return func(io.Writer) error { return nil }
		}},
	})
	if err := run([]string{"echo", "-word", "hi"}, io.Discard); err != nil || got != "prog echo:hi" {
		t.Fatalf("echo -word hi -> %v, recorded %q", err, got)
	}
	for _, tc := range []struct {
		args []string
		want error
	}{
		{nil, ErrUsage},
		{[]string{"-word", "hi"}, ErrUsage},
		{[]string{"nope"}, ErrUsage},
		{[]string{"other", "-word", "hi"}, ErrUsage},
		{[]string{"echo", "stray", "-word", "hi"}, ErrUsage},
		{[]string{"help"}, flag.ErrHelp},
		{[]string{"-h"}, flag.ErrHelp},
		{[]string{"echo", "-h"}, flag.ErrHelp},
	} {
		if err := run(tc.args, io.Discard); !errors.Is(err, tc.want) {
			t.Errorf("%q -> %v, want %v", tc.args, err, tc.want)
		}
	}
}

// TestList checks the comma-list flag: commas and spaces separate names,
// empty names drop out, and String joins what Set kept.
func TestList(t *testing.T) {
	var names []string
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.Var((*List)(&names), "in", "names")
	if err := fs.Parse([]string{"-in", "a.pcap, b.pcap,,c.pcap"}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(names, "|"); got != "a.pcap|b.pcap|c.pcap" {
		t.Fatalf("parsed %q", got)
	}
	if got := fs.Lookup("in").Value.String(); got != "a.pcap,b.pcap,c.pcap" {
		t.Fatalf("String() = %q", got)
	}
}

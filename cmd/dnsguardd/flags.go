package main

import (
	"errors"
	"slices"
	"strconv"
	"strings"
	"time"
)

// flagSet is dnsguardd's command line: the part of Go's flag grammar the
// daemon uses, parsed without the flag package, which would link fmt and
// reflect into the guard's image. Its errors and its -h text are flag's,
// byte for byte (TestFlagsMatchPackageFlag).
type flagSet []flagDef

// flagDef is one flag: p points at the value it sets, a *string, *bool,
// *int, *float64 or *time.Duration, and def is its default as -h prints it.
type flagDef struct {
	name, def, usage string
	p                any
}

var errHelp = errors.New("flag: help requested")

// add defines flag name, setting what p points at to def.
func (fs *flagSet) add(name string, p any, def, usage string) {
	d := flagDef{name, def, usage, p}
	if d.set(def) != nil {
		panic("dnsguardd: bad default for -" + name)
	}
	*fs = append(*fs, d)
}

// set parses s into what d points at, with flag's error texts.
func (d flagDef) set(s string) (err error) {
	switch p := d.p.(type) {
	case *string:
		*p = s
	case *bool:
		*p, err = strconv.ParseBool(s)
	case *int:
		var v int64
		v, err = strconv.ParseInt(s, 0, strconv.IntSize)
		*p = int(v)
	case *float64:
		*p, err = strconv.ParseFloat(s, 64)
	case *time.Duration:
		*p, err = time.ParseDuration(s)
	}
	if errors.Is(err, strconv.ErrRange) {
		return errors.New("value out of range")
	} else if err != nil {
		return errors.New("parse error")
	}
	return nil
}

// parse sets the flags args name, as flag.FlagSet.Parse does: it stops at
// the first argument that is not a flag, or after "--", and returns the
// arguments left. -h and -help return errHelp.
func (fs flagSet) parse(args []string) ([]string, error) {
	for len(args) > 0 && len(args[0]) > 1 && args[0][0] == '-' {
		s := args[0]
		name := strings.TrimPrefix(s[1:], "-")
		if s == "--" {
			return args[1:], nil
		} else if name == "" || name[0] == '-' || name[0] == '=' {
			return nil, errors.New("bad flag syntax: " + s)
		}
		args = args[1:]
		name, value, hasValue := strings.Cut(name, "=")
		i := slices.IndexFunc(fs, func(d flagDef) bool { return d.name == name })
		if i < 0 && (name == "help" || name == "h") {
			return nil, errHelp
		} else if i < 0 {
			return nil, errors.New("flag provided but not defined: -" + name)
		}
		_, isBool := fs[i].p.(*bool)
		switch {
		case isBool && !hasValue:
			value = "true"
		case !hasValue && len(args) == 0:
			return nil, errors.New("flag needs an argument: -" + name)
		case !hasValue:
			value, args = args[0], args[1:]
		}
		if err := fs[i].set(value); err != nil && isBool {
			return nil, errors.New("invalid boolean value " + strconv.Quote(value) + " for -" + name + ": " + err.Error())
		} else if err != nil {
			return nil, errors.New("invalid value " + strconv.Quote(value) + " for flag -" + name + ": " + err.Error())
		}
	}
	return args, nil
}

// usage is flag's usage message for program: every flag, in the name order
// flags defines them in, with the kind of value it takes and its default
// unless that is the zero value. No flag has a one-letter name or a usage of
// more than one line, which flag would lay out otherwise.
func (fs flagSet) usage(program string) string {
	b := "Usage of " + program + ":\n"
	for _, d := range fs {
		kind, zero, def := "", "false", d.def
		switch d.p.(type) {
		case *string:
			kind, zero, def = " string", "", strconv.Quote(def)
		case *int:
			kind, zero = " int", "0"
		case *float64:
			kind, zero = " float", "0"
		case *time.Duration:
			kind, zero = " duration", "0s"
		}
		b += "  -" + d.name + kind + "\n    \t" + d.usage
		if d.def != zero {
			b += " (default " + def + ")"
		}
		b += "\n"
	}
	return b
}

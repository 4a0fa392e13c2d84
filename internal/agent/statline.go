package agent

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"perfsight/internal/core"
)

// The agent's three text channels — the QEMU counter log, the middlebox
// stats socket and the vswitch control channel's `switch` line — carry a
// record as one stat line:
//
//	<ts> <element> name=value name=value …
//
// ts is a decimal int64; a value is the shortest decimal that parses back
// to the same float64. Fields are separated by single spaces, so an
// element ID or attribute name holding a space, '=' or a line break cannot
// be written: appendStatLine refuses it, as it refuses payload attrs (a
// flow sketch is not a number). None of the schema's names has either.

// appendStatLine appends rec as one stat line without its newline.
func appendStatLine(dst []byte, rec core.Record) ([]byte, error) {
	if rec.Element == "" || strings.ContainsAny(string(rec.Element), " =\r\n") {
		return dst, fmt.Errorf("stat line: element %q cannot be written", rec.Element)
	}
	dst = strconv.AppendInt(dst, rec.Timestamp, 10)
	dst = append(append(dst, ' '), rec.Element...)
	for _, a := range rec.Attrs {
		name := a.Name()
		if name == "" || a.Payload != nil || strings.ContainsAny(name, " =\r\n") {
			return dst, fmt.Errorf("stat line: %s: attribute %q cannot be written", rec.Element, name)
		}
		dst = append(append(append(dst, ' '), name...), '=')
		dst = strconv.AppendFloat(dst, a.Value, 'g', -1, 64)
	}
	return dst, nil
}

// parseStatLine parses one stat line, which must describe element want,
// appending its attrs to dst (nil: a slice sized to the line). Unknown
// attribute names register as extension attrs, as on the wire decode
// paths. Anything malformed is an error: a channel that cannot be read
// fails its element rather than delivering part of a record.
func parseStatLine(dst []core.Attr, line []byte, want core.ElementID) (core.Record, error) {
	tsField, rest, _ := bytes.Cut(line, []byte(" "))
	ts, err := strconv.ParseInt(string(tsField), 10, 64)
	if err != nil {
		return core.Record{}, fmt.Errorf("stat line %q: timestamp: %w", line, err)
	}
	elem, rest, _ := bytes.Cut(rest, []byte(" "))
	if string(elem) != string(want) {
		return core.Record{}, fmt.Errorf("stat line %q: describes %q, want %s", line, elem, want)
	}
	if dst == nil {
		dst = make([]core.Attr, 0, bytes.Count(rest, []byte("=")))
	}
	for len(rest) > 0 {
		var kv []byte
		kv, rest, _ = bytes.Cut(rest, []byte(" "))
		name, val, ok := bytes.Cut(kv, []byte("="))
		if !ok || len(name) == 0 {
			return core.Record{}, fmt.Errorf("stat line %q: field %q is not name=value", line, kv)
		}
		v, err := strconv.ParseFloat(string(val), 64)
		if err != nil {
			return core.Record{}, fmt.Errorf("stat line %q: %s: %w", line, name, err)
		}
		// The lookup's string(name) does not escape, so a known name costs
		// no allocation; only a first-seen name is copied, to register it.
		id, known := core.LookupAttr(string(name))
		if !known {
			id = core.AttrIDFor(string(name))
		}
		dst = append(dst, core.Attr{ID: id, Value: v})
	}
	return core.Record{Timestamp: ts, Element: want, Attrs: dst}, nil
}

package main

// The /v1/assign wire path: the body is read once under -max-body, a
// single-pass scanner parses the canonical request grammar straight
// into one row-major []float64, and the response is appended with
// strconv.
//
// The scanner never rejects. A body outside the canonical grammar —
// escapes or non-ASCII bytes in a string, null, duplicate or
// case-folded keys, a number strconv cannot represent, an empty
// feature row, anything else — goes back through decodeStrict, the
// strict encoding/json decode, which stays the only source of 400
// statuses and their texts. FuzzAssignWire pins that every body the
// scanner accepts decodes to the identical assignRequest there.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
)

// maxPresize caps the up-front body allocation a declared
// Content-Length can ask for, so a merely announced body cannot pin
// memory; a larger body grows the buffer as its bytes arrive.
const maxPresize = 1 << 20

// readBody reads the whole request body under the maxBody bound into a
// buffer sized from Content-Length. Reading to EOF, rather than to the
// end of the first JSON value, is what makes the bound cover trailing
// bytes too. The *http.MaxBytesError of an oversized body is kept in
// the wrap so bodyErrStatus maps it to 413.
func readBody(w http.ResponseWriter, r *http.Request, maxBody int64) ([]byte, error) {
	size := 512
	if cl := r.ContentLength; cl > 0 {
		// One spare byte lets the final read see EOF without growing.
		size = int(min(cl, maxBody, maxPresize)) + 1
	}
	b := make([]byte, 0, size)
	rd := http.MaxBytesReader(w, r.Body, maxBody)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := rd.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, fmt.Errorf("bad request body: %w", err)
		}
	}
}

// decodeJSON strictly decodes one JSON body of at most maxBody bytes:
// oversized payloads, unknown fields and trailing data are all
// rejected rather than silently accepted or read unboundedly.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any, maxBody int64) error {
	body, err := readBody(w, r, maxBody)
	if err != nil {
		return err
	}
	return decodeStrict(body, v)
}

// decodeStrict is the reference decode of a whole body: encoding/json
// with unknown fields disallowed, and nothing but whitespace after the
// value.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	for _, c := range body[dec.InputOffset():] {
		if !isSpace(c) {
			return errors.New("bad request body: trailing data")
		}
	}
	return nil
}

// decodeAssign decodes a /v1/assign body: the canonical fast path
// when it applies, the strict reference decode otherwise.
func decodeAssign(body []byte) (assignRequest, error) {
	if req, ok := parseAssign(body); ok {
		return req, nil
	}
	var req assignRequest
	err := decodeStrict(body, &req)
	return req, err
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// Key bits of parseAssign's duplicate-key check.
const (
	keyModel = 1 << iota
	keyRaw
	keyFeatures
	keySensitive
	keyRows
)

// parseAssign is the single-pass scanner of the canonical /v1/assign
// grammar:
//
//	request   = { "model": string | "raw": bool | "features": row |
//	              "sensitive": labels | "rows": [ {"features": row,
//	              "sensitive": labels}, ... ] }   each key at most once
//	row       = [ number, ... ]   at least one number
//	labels    = { string: string, ... }
//	string    = printable ASCII without '"' or '\'
//
// with JSON whitespace between tokens and around the value. Every
// feature row is a capacity-clipped sub-slice of one request-owned
// []float64, so a raw request may scale its rows in place. ok is false
// for any body outside the grammar; the result is then zero.
func parseAssign(body []byte) (req assignRequest, ok bool) {
	// A number in a row is followed by exactly one ',' or ']', so this
	// bounds the row buffer without a pre-pass over the numbers. A number
	// and its delimiter take at least two bytes, so no valid body needs
	// more than len(body)/2 slots: a body of bare commas must not size
	// the buffer beyond what a valid body of its length could use.
	n := min(bytes.Count(body, []byte{','})+bytes.Count(body, []byte{']'}), len(body)/2)
	s := wireScanner{b: body, flat: make([]float64, 0, n)}
	var seen int
	ok = s.object(func(key []byte) bool {
		var bit int
		switch string(key) {
		case "model":
			bit = keyModel
		case "raw":
			bit = keyRaw
		case "features":
			bit = keyFeatures
		case "sensitive":
			bit = keySensitive
		case "rows":
			bit = keyRows
		}
		if bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		var ok bool
		switch bit {
		case keyModel:
			var v []byte
			v, ok = s.str()
			req.Model = string(v)
		case keyRaw:
			req.Raw, ok = s.boolean()
		case keyFeatures:
			req.Features, ok = s.features()
		case keySensitive:
			req.Sensitive, ok = s.labels()
		case keyRows:
			req.Rows, ok = s.rows()
		}
		return ok
	})
	s.ws()
	if !ok || s.i != len(s.b) {
		return assignRequest{}, false
	}
	return req, true
}

// wireScanner walks a body for parseAssign. Each method skips leading
// whitespace and reports false at the first byte outside the canonical
// grammar; none produces an error of its own.
type wireScanner struct {
	b    []byte
	i    int
	flat []float64 // backs every parsed feature row, row-major
}

func (s *wireScanner) ws() {
	for s.i < len(s.b) && isSpace(s.b[s.i]) {
		s.i++
	}
}

// eat consumes c after optional whitespace.
func (s *wireScanner) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// object scans {key: value, ...}; member sees each key with the
// scanner positioned after its colon and must consume the value.
func (s *wireScanner) object(member func(key []byte) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	for {
		k, ok := s.str()
		if !ok || !s.eat(':') || !member(k) {
			return false
		}
		if s.eat('}') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// str scans a canonical string and returns its bytes, aliasing the
// body.
func (s *wireScanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c >= 0x7f || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (s *wireScanner) boolean() (v, ok bool) {
	s.ws()
	rest := s.b[s.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		s.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += 5
		return false, true
	}
	return false, false
}

// number scans one JSON number and appends its float64 to the row
// buffer. The JSON grammar is checked first because strconv.ParseFloat
// also takes forms JSON does not (hex, "Inf", "+1", "01", '_'); the
// conversion itself is the one encoding/json makes, so the bits agree.
func (s *wireScanner) number() bool {
	s.ws()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for i++; i < len(b) && isDigit(b[i]); i++ {
		}
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i == len(b) || !isDigit(b[i]) {
			return false
		}
		for ; i < len(b) && isDigit(b[i]); i++ {
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			return false
		}
		for ; i < len(b) && isDigit(b[i]); i++ {
		}
	}
	f, err := strconv.ParseFloat(string(b[s.i:i]), 64)
	if err != nil {
		return false
	}
	s.flat = append(s.flat, f)
	s.i = i
	return true
}

// features scans a non-empty number array into the row buffer and
// returns it as a sub-slice clipped to its own length.
func (s *wireScanner) features() ([]float64, bool) {
	if !s.eat('[') {
		return nil, false
	}
	lo := len(s.flat)
	for {
		if !s.number() {
			return nil, false
		}
		if s.eat(']') {
			break
		}
		if !s.eat(',') {
			return nil, false
		}
	}
	hi := len(s.flat)
	return s.flat[lo:hi:hi], true
}

// labels scans a string-to-string object. A repeated key overwrites,
// as it does in encoding/json's map decode.
func (s *wireScanner) labels() (map[string]string, bool) {
	m := make(map[string]string)
	ok := s.object(func(key []byte) bool {
		v, ok := s.str()
		m[string(key)] = string(v)
		return ok
	})
	return m, ok
}

// minRowBytes is the length of the shortest batch row with its
// delimiter: {"features":[0]},
const minRowBytes = len(`{"features":[0]},`)

// rows scans a non-empty array of row objects, each with a "features"
// row and optional "sensitive" labels.
func (s *wireScanner) rows() ([]assignRow, bool) {
	if !s.eat('[') {
		return nil, false
	}
	// Every row opens with '{', so this bounds the row count; and the
	// shortest row, {"features":[0]} plus its ',' or ']', takes
	// minRowBytes, so a run of bare braces cannot inflate it either.
	rest := s.b[s.i:]
	rows := make([]assignRow, 0, min(bytes.Count(rest, []byte{'{'}), len(rest)/minRowBytes))
	for {
		var row assignRow
		var seen int
		ok := s.object(func(key []byte) bool {
			var ok bool
			switch {
			case string(key) == "features" && seen&keyFeatures == 0:
				seen |= keyFeatures
				row.Features, ok = s.features()
			case string(key) == "sensitive" && seen&keySensitive == 0:
				seen |= keySensitive
				row.Sensitive, ok = s.labels()
			}
			return ok
		})
		if !ok || row.Features == nil {
			return nil, false
		}
		rows = append(rows, row)
		if s.eat(']') {
			return rows, true
		}
		if !s.eat(',') {
			return nil, false
		}
	}
}

// appendAssignResponse appends the /v1/assign reply exactly as
// json.Marshal encodes the assignResponse, plus the newline
// json.Encoder ends a value with. ok is false when a distance is not
// finite, which json.Marshal cannot encode either.
func appendAssignResponse(b []byte, model string, generation int, clusters []int, dists []float64) (_ []byte, ok bool) {
	b = append(b, `{"model":`...)
	b = appendJSONString(b, model)
	b = append(b, `,"generation":`...)
	b = strconv.AppendInt(b, int64(generation), 10)
	b = append(b, `,"assignments":[`...)
	for i, c := range clusters {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"cluster":`...)
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, `,"distance":`...)
		if b, ok = appendJSONFloat(b, dists[i]); !ok {
			return b, false
		}
		b = append(b, '}')
	}
	return append(b, "]}\n"...), true
}

// appendJSONFloat formats f as encoding/json does: the shortest
// round-trip digits in 'f' form, or 'e' form below 1e-6 and from 1e21
// on, with a two-digit negative exponent trimmed (e-09 → e-9).
func appendJSONFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs > 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, true
}

// appendJSONString appends s quoted as json.Marshal quotes it. Plain
// printable ASCII is copied as is; anything json.Marshal would escape
// (quotes, backslashes, control bytes, HTML's <>&, non-ASCII) is left
// to json.Marshal.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) //fairvet:ignore errflow -- marshaling a string cannot fail
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

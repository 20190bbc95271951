package obs

import (
	"fmt"
	"math"
	"strconv"
)

// JSONObj builds one flat JSON object in a reused buffer: the line builder
// of the control loop's trace and the fleet's trace and cloud payloads. It
// is hand-rolled over strconv.Append*: fmt and encoding/json box every
// value (one alloc each), which would break the zero-steady-state-alloc
// budgets of both loops. Keys and string values must be static strings
// without JSON metacharacters. The methods chain.
type JSONObj struct {
	// B is the object so far; callers may append a value after Key. It is
	// valid until the next Reset.
	B []byte
	// Err is the first value Float could not encode (NaN or ±Inf).
	Err error
}

// Reset starts a new object, keeping the buffer's capacity.
func (j *JSONObj) Reset() *JSONObj {
	j.B = append(j.B[:0], '{')
	j.Err = nil
	return j
}

// Key writes the separator and "k": before a value.
func (j *JSONObj) Key(k string) {
	if len(j.B) > 1 {
		j.B = append(j.B, ',')
	}
	j.B = append(j.B, '"')
	j.B = append(j.B, k...)
	j.B = append(j.B, '"', ':')
}

// Int writes an integer value.
func (j *JSONObj) Int(k string, v int64) *JSONObj {
	j.Key(k)
	j.B = strconv.AppendInt(j.B, v, 10)
	return j
}

// Fixed writes v with prec decimals.
func (j *JSONObj) Fixed(k string, v float64, prec int) *JSONObj {
	j.Key(k)
	j.B = strconv.AppendFloat(j.B, v, 'f', prec, 64)
	return j
}

// Float writes v as encoding/json writes a float64: the shortest 'f' form,
// or the shortest 'e' form below 1e-6 and from 1e21 with a one-digit
// negative exponent unpadded (e-7, not e-07). NaN and ±Inf have no JSON
// form: they write nothing and set Err, as json.Marshal fails on them.
func (j *JSONObj) Float(k string, v float64) *JSONObj {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if j.Err == nil {
			j.Err = fmt.Errorf("obs: %q: unsupported JSON value %s", k, strconv.FormatFloat(v, 'g', -1, 64))
		}
		return j
	}
	j.Key(k)
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	j.B = strconv.AppendFloat(j.B, v, format, -1, 64)
	if n := len(j.B); format == 'e' && j.B[n-4] == 'e' && j.B[n-3] == '-' && j.B[n-2] == '0' {
		j.B[n-2] = j.B[n-1]
		j.B = j.B[:n-1]
	}
	return j
}

// Bool writes true or false.
func (j *JSONObj) Bool(k string, v bool) *JSONObj {
	j.Key(k)
	j.B = strconv.AppendBool(j.B, v)
	return j
}

// Str writes a string value.
func (j *JSONObj) Str(k, v string) *JSONObj {
	j.Key(k)
	j.B = append(j.B, '"')
	j.B = append(j.B, v...)
	j.B = append(j.B, '"')
	return j
}

// Close ends the object and returns its bytes, valid until the next Reset.
func (j *JSONObj) Close() []byte {
	j.B = append(j.B, '}')
	return j.B
}

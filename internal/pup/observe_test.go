package pup

import (
	"encoding/binary"
	"math"
)

// Float64s visits a variable-length []float64 as one bulk area.
func (p *PUPer) Float64s(v *[]float64) error {
	n := uint32(len(*v))
	if err := p.Uint32(&n); err != nil {
		return err
	}
	if p.mode == Unpacking {
		if err := p.checkLen(n, 8, "[]float64"); err != nil {
			return err
		}
		*v = make([]float64, n)
	}
	a, err := p.area(int(n) * 8)
	if err != nil || a == nil {
		return err
	}
	if p.mode == Packing {
		for i, x := range *v {
			binary.LittleEndian.PutUint64(a[i*8:], math.Float64bits(x))
		}
	} else {
		for i := range *v {
			(*v)[i] = math.Float64frombits(binary.LittleEndian.Uint64(a[i*8:]))
		}
	}
	return nil
}

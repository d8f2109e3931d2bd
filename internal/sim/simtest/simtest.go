// Package simtest holds test helpers for the layers built on package sim.
// Only tests import it.
package simtest

import (
	"errors"
	"fmt"
	"reflect"
	"unsafe"

	"repro/internal/sim"
)

// RecycledZero checks the FreeList contract on one pooled record type: it
// gets a record from l, sets every field to a non-zero value (through
// nested structs and arrays, unexported fields included), puts the record
// back and gets it again. It returns an error unless Get returned the same
// record with every field zero. A field a recycled record kept, such as a
// stale pointer or engine handle, could reach or cancel another record's
// work.
func RecycledZero[T any](l *sim.FreeList[T]) error {
	p := l.Get()
	v := reflect.ValueOf(p).Elem()
	var err error
	leaves(v, v.Type().String(), func(path string, f reflect.Value) {
		if err == nil {
			err = dirty(path, f)
		}
	})
	if err != nil {
		return err
	}
	l.Put(p)
	if l.Get() != p {
		return fmt.Errorf("%T: Get after Put returned another record", *p)
	}
	leaves(v, v.Type().String(), func(path string, f reflect.Value) {
		if err == nil && !f.IsZero() {
			err = fmt.Errorf("%s kept its value when the record was recycled", path)
		}
	})
	return err
}

// leaves calls fn on every field of v that is not a struct or an array,
// with its path from the record's type.
func leaves(v reflect.Value, path string, fn func(string, reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			leaves(v.Field(i), path+"."+v.Type().Field(i).Name, fn)
		}
	case reflect.Array:
		for i := range v.Len() {
			leaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), fn)
		}
	default:
		fn(path, v)
	}
}

var errorType = reflect.TypeFor[error]()

// dirty sets field f, exported or not, to a non-zero value of its type.
func dirty(path string, f reflect.Value) error {
	f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		f.SetUint(1)
	case reflect.Float32, reflect.Float64:
		f.SetFloat(1)
	case reflect.String:
		f.SetString("x")
	case reflect.Pointer:
		f.Set(reflect.New(f.Type().Elem()))
	case reflect.Slice:
		f.Set(reflect.MakeSlice(f.Type(), 1, 1))
	case reflect.Map:
		f.Set(reflect.MakeMap(f.Type()))
	case reflect.Func:
		f.Set(reflect.MakeFunc(f.Type(), nil))
	case reflect.Interface:
		switch {
		case f.Type() == errorType:
			f.Set(reflect.ValueOf(errors.New("x")))
		case f.Type().NumMethod() == 0:
			f.Set(reflect.ValueOf(1))
		default:
			return fmt.Errorf("%s: no value to dirty an interface of type %v with", path, f.Type())
		}
	default:
		return fmt.Errorf("%s: no value to dirty a field of kind %v with", path, f.Kind())
	}
	return nil
}

package simos

import (
	"testing"

	"repro/internal/ptime"
	"repro/internal/simdisk"
)

func TestVMValidation(t *testing.T) {
	o, _ := testOS(t, nil)
	disk := simdisk.New(o.Mem().ClockHandle(), simdisk.Config{})
	if _, err := o.NewVM(0, 4096, disk); err == nil {
		t.Error("zero memory should error")
	}
	if _, err := o.NewVM(1<<20, 0, disk); err == nil {
		t.Error("zero page size should error")
	}
	if _, err := o.NewVM(1<<20, 4096, nil); err == nil {
		t.Error("nil disk should error")
	}
}

func TestVMResidentTouchIsCheap(t *testing.T) {
	o, clk := testOS(t, nil)
	disk := simdisk.New(clk, simdisk.Config{})
	vm, err := o.NewVM(1<<20, 4096, disk) // 256 pages
	if err != nil {
		t.Fatal(err)
	}
	vm.Touch(0) // major fault
	if vm.Faults != 1 {
		t.Errorf("Faults = %d", vm.Faults)
	}
	before := clk.Now()
	vm.Touch(0) // resident
	if got := clk.Now() - before; got > 10*ptime.Microsecond {
		t.Errorf("resident touch = %v, want sub-10us", got)
	}
	if vm.Faults != 1 {
		t.Errorf("resident touch faulted: %d", vm.Faults)
	}
}

func TestVMFaultIsMilliseconds(t *testing.T) {
	o, clk := testOS(t, nil)
	disk := simdisk.New(clk, simdisk.Config{})
	vm, _ := o.NewVM(1<<20, 4096, disk)
	before := clk.Now()
	vm.Touch(42)
	if got := clk.Now() - before; got < ptime.Millisecond {
		t.Errorf("major fault = %v, want >= 1ms (disk read)", got)
	}
}

func TestVMLRUEviction(t *testing.T) {
	o, _ := testOS(t, nil)
	disk := simdisk.New(o.Mem().ClockHandle(), simdisk.Config{})
	vm, _ := o.NewVM(4*4096, 4096, disk) // 4 physical pages
	// Fill pages 0..3, then touch 4: page 0 (LRU) must be evicted.
	vm.TouchPages(4)
	vm.Touch(4)
	faults := vm.Faults
	vm.Touch(1) // still resident
	if vm.Faults != faults {
		t.Error("page 1 should still be resident")
	}
	vm.Touch(0) // evicted: refault
	if vm.Faults != faults+1 {
		t.Error("page 0 should have been evicted")
	}
}

// TestVMProbeSemantics replays the §3.1 probe logic: per-touch time
// jumps by orders of magnitude once the working set exceeds physical
// memory.
func TestVMProbeSemantics(t *testing.T) {
	o, clk := testOS(t, nil)
	disk := simdisk.New(clk, simdisk.Config{})
	const physPages = 256
	vm, _ := o.NewVM(physPages*4096, 4096, disk)

	perTouch := func(pages int64) ptime.Duration {
		vm.TouchPages(pages) // populate
		before := clk.Now()
		vm.TouchPages(pages)
		return (clk.Now() - before).DivN(pages)
	}
	fits := perTouch(128)
	thrashes := perTouch(512) // 2x physical: every touch refaults
	if fits > 10*ptime.Microsecond {
		t.Errorf("fitting pass = %v/touch, want cheap", fits)
	}
	if thrashes < ptime.Millisecond {
		t.Errorf("thrashing pass = %v/touch, want disk-bound", thrashes)
	}
}

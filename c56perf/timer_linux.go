//go:build linux

package main

import (
	"io"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// dueTimer waits until a request's due time. The runtime's timers wake an
// idle process through epoll_wait's millisecond timeout, so a wait ends up
// to 1 ms late; that lateness would be charged to every open-loop sample.
// On Linux the generator instead waits on a timerfd, which the netpoller
// sees as an ordinary readable event, so a wait ends within the kernel's
// high-resolution timer precision.
type dueTimer struct {
	fd int
	f  *os.File
}

func newDueTimer() (*dueTimer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	// A non-blocking descriptor makes the File pollable: Read parks the
	// goroutine in the netpoller instead of blocking a thread.
	return &dueTimer{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// sleep returns after d (d > 0).
func (t *dueTimer) sleep(d time.Duration) error {
	// struct itimerspec: it_interval (zero: one-shot), then it_value.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(t.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var expirations [8]byte
	_, err := io.ReadFull(t.f, expirations[:])
	return err
}

func (t *dueTimer) close() { t.f.Close() }

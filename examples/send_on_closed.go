// The §6 send-on-closed extension (`gcatch extended`): a send that some
// schedule runs after a close of the same channel panics at run time.
// In Collect, a worker sends its result while the parent closes `results`
// on either of two paths, without waiting for the worker: each close can
// win the race, so each (send, close) pair is one report. In Produce, the
// only producer closes `jobs` after its last send, the idiomatic pattern,
// which never panics. Nothing blocks, so `gcatch check` is clean.
package main

func Collect(fail bool) {
	results := make(chan int, 1)
	go func() {
		results <- 1
	}()
	if fail {
		close(results)
		return
	}
	close(results)
}

func Produce() {
	jobs := make(chan int, 2)
	go func() {
		jobs <- 1
		jobs <- 2
		close(jobs)
	}()
	for j := range jobs {
		_ = j
	}
}

func main() {
	Collect(false)
	Produce()
}

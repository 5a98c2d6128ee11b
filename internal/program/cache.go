package program

import "sync"

// Cache memoizes generated suite workloads by (name, length): each is
// generated once, and concurrent lookups of one workload wait for the
// generation in flight instead of repeating it. A failed generation is
// not cached; the waiters then contend to retry it. The zero value is
// ready to use, and all methods are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	progs   map[cacheKey]*Program
	flights map[cacheKey]chan struct{}
}

type cacheKey struct {
	name   string
	length uint64
}

// Get returns the suite workload name generated at length, generating
// it on first use.
func (c *Cache) Get(name string, length uint64) (*Program, error) {
	key := cacheKey{name, length}
	for {
		c.mu.Lock()
		if p, ok := c.progs[key]; ok {
			c.mu.Unlock()
			return p, nil
		}
		if done, ok := c.flights[key]; ok {
			c.mu.Unlock()
			<-done
			continue // the generator finished (or failed); re-check
		}
		if c.flights == nil {
			c.progs = make(map[cacheKey]*Program)
			c.flights = make(map[cacheKey]chan struct{})
		}
		done := make(chan struct{})
		c.flights[key] = done
		c.mu.Unlock()

		spec, err := ByName(name)
		var p *Program
		if err == nil {
			p, err = Generate(spec, length)
		}
		c.mu.Lock()
		if err == nil {
			c.progs[key] = p
		}
		delete(c.flights, key)
		c.mu.Unlock()
		close(done)
		return p, err
	}
}

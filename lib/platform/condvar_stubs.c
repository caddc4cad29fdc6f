/* Timed wait on the stdlib's Condition.t.

   OCaml 5.1's Condition has no timed wait. This mirrors the runtime's
   caml_ml_condition_wait (runtime/sync.c): both custom blocks hold a
   pointer to the pthread object, and the wait runs outside the runtime
   lock so other OCaml threads keep running while this one is parked. */
#define _GNU_SOURCE
#define CAML_INTERNALS
#include <errno.h>
#include <pthread.h>
#include <stdint.h>
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/signals.h>
#include <caml/sync.h>

#define Condition_val(v) (*((pthread_cond_t **)Data_custom_val(v)))

/* pthread_cond_clockwait (glibc >= 2.30) takes a CLOCK_MONOTONIC
   deadline, so a wall-clock step cannot stretch a wait; elsewhere fall
   back to the condvar's default CLOCK_REALTIME. */
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 30)
#define WAIT_CLOCK CLOCK_MONOTONIC
#define timed_wait(c, m, ts) pthread_cond_clockwait(c, m, CLOCK_MONOTONIC, ts)
#else
#define WAIT_CLOCK CLOCK_REALTIME
#define timed_wait(c, m, ts) pthread_cond_timedwait(c, m, ts)
#endif

value platform_condvar_wait_ns(value wcond, value wmut, value wns)
{
  CAMLparam3(wcond, wmut, wns);
  pthread_cond_t *cond = Condition_val(wcond);
  pthread_mutex_t *mut = Mutex_val(wmut);
  int64_t ns = Int64_val(wns);
  struct timespec ts;
  int rc;
  clock_gettime(WAIT_CLOCK, &ts);
  ns += ts.tv_nsec;
  ts.tv_sec += ns / 1000000000;
  ts.tv_nsec = ns % 1000000000;
  caml_enter_blocking_section();
  rc = timed_wait(cond, mut, &ts);
  caml_leave_blocking_section();
  if (rc != 0 && rc != ETIMEDOUT) caml_failwith("Condvar.wait");
  CAMLreturn(Val_unit);
}

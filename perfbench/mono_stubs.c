/* CLOCK_MONOTONIC is shared by every process on a host, so spans taken
   in the generator and in the cluster process line up. */
#include <time.h>
#include <caml/mlvalues.h>

value perf_mono_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

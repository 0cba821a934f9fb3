/* Clocks for timing.  The process's CPU clock runs only while a thread
   of the process runs, so time the host steals from the virtual
   machine, or other processes take, is not counted; a read costs a
   system call.  The monotonic clock is read without one, for the short
   spans of the traced run. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

static double read_clock(clockid_t id)
{
  struct timespec ts;
  clock_gettime(id, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

double perfbench_cpu_now(value unit)
{
  (void)unit;
  return read_clock(CLOCK_PROCESS_CPUTIME_ID);
}

value perfbench_cpu_now_byte(value unit)
{
  return caml_copy_double(perfbench_cpu_now(unit));
}

double perfbench_mono_now(value unit)
{
  (void)unit;
  return read_clock(CLOCK_MONOTONIC);
}

value perfbench_mono_now_byte(value unit)
{
  return caml_copy_double(perfbench_mono_now(unit));
}

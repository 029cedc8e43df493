/* wait4(2) for the benchmark: the exit status of one child together
   with its peak resident set, which Unix.waitpid does not report; and
   pinning the benchmark to one processor. */

#define _GNU_SOURCE
#include <errno.h>
#include <sched.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* perfbench_wait4 pid nohang = (code, maxrss_kib): code is the exit
   code, or minus the signal number when the child was killed; -1000
   when a signal interrupted the wait (the caller retries after OCaml
   has run its handlers); -1001 when [nohang] and the child still runs. */
value perfbench_wait4(value vpid, value vnohang)
{
  CAMLparam2(vpid, vnohang);
  CAMLlocal1(res);
  int status = 0, err = 0, code;
  struct rusage ru;
  pid_t r;
  memset(&ru, 0, sizeof ru);
  caml_enter_blocking_section();
  r = wait4((pid_t)Long_val(vpid), &status, Bool_val(vnohang) ? WNOHANG : 0, &ru);
  err = errno;
  caml_leave_blocking_section();
  if (r < 0 && err == EINTR) code = -1000;
  else if (r < 0) caml_failwith(strerror(err));
  else if (r == 0) code = -1001;
  else if (WIFEXITED(status)) code = WEXITSTATUS(status);
  else if (WIFSIGNALED(status)) code = -WTERMSIG(status);
  else code = -255;
  res = caml_alloc_tuple(2);
  Store_field(res, 0, Val_int(code));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}

/* perfbench_pin_cpu () pins the calling process, and the children it
   starts later, to the processor it runs on; that processor's number,
   or -1 when the system does not allow it. */
value perfbench_pin_cpu(value unit)
{
  CAMLparam1(unit);
  int cpu = sched_getcpu();
  cpu_set_t set;
  if (cpu < 0) CAMLreturn(Val_int(-1));
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) CAMLreturn(Val_int(-1));
  CAMLreturn(Val_int(cpu));
}

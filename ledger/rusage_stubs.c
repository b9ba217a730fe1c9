/* Peak resident set size of the waited-for children of this process (shard
   workers), from getrusage(2); Linux reports ru_maxrss in kilobytes.

   The process's own ru_maxrss is no use to a child started by exec: Linux
   folds the parent's high-water mark into it at exec time, so the child
   reads /proc/self/status (VmHWM, which starts afresh at exec) instead. */

#include <sys/resource.h>
#include <caml/mlvalues.h>

CAMLprim value ledger_children_maxrss_kb(value unit)
{
  struct rusage children;
  (void)unit;
  if (getrusage(RUSAGE_CHILDREN, &children) != 0) return Val_long(0);
  return Val_long(children.ru_maxrss);
}

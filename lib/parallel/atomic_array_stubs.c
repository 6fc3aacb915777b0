/* Sequentially consistent access to the cells of an OCaml [int array].

   Every cell holds an immediate (a tagged int), so stores need no write
   barrier, and the stubs are [@@noalloc]: they hold no safepoint, so the
   GC cannot move the array while one of them runs. Values stay tagged
   throughout: CAS compares tagged words, which is equality on ints, and
   [fetch_add] adds the delta's tagged form minus the tag bit. */

#include <caml/mlvalues.h>

static inline value *cell(value cells, value index)
{
  return Op_val(cells) + Long_val(index);
}

value graphit_atomic_array_get(value cells, value index)
{
  return __atomic_load_n(cell(cells, index), __ATOMIC_SEQ_CST);
}

value graphit_atomic_array_set(value cells, value index, value v)
{
  __atomic_store_n(cell(cells, index), v, __ATOMIC_SEQ_CST);
  return Val_unit;
}

value graphit_atomic_array_cas(value cells, value index, value expected,
                               value desired)
{
  return Val_bool(__atomic_compare_exchange_n(cell(cells, index), &expected,
                                              desired, 0, __ATOMIC_SEQ_CST,
                                              __ATOMIC_SEQ_CST));
}

value graphit_atomic_array_fetch_add(value cells, value index, value delta)
{
  return __atomic_fetch_add(cell(cells, index), delta - 1, __ATOMIC_SEQ_CST);
}

/* Bulk byte primitives for the chunk data plane.

   The pure-OCaml fallbacks move one byte per iteration through the
   Bigarray accessors; on the chunked hot path (line scanning and the
   codec/syscall copy points) that per-byte cost dominates everything
   else, so the inner loops are memcpy/memchr instead.  All
   bounds checking stays on the OCaml side. */

#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

CAMLprim value eden_chunk_blit_ba_bytes(value ba, value src, value b, value dst,
                                        value len)
{
  memcpy(Bytes_val(b) + Long_val(dst),
         (char *) Caml_ba_data_val(ba) + Long_val(src), Long_val(len));
  return Val_unit;
}

CAMLprim value eden_chunk_blit_string_ba(value s, value src, value ba, value dst,
                                         value len)
{
  memcpy((char *) Caml_ba_data_val(ba) + Long_val(dst),
         String_val(s) + Long_val(src), Long_val(len));
  return Val_unit;
}

CAMLprim value eden_chunk_blit_ba_ba(value src, value spos, value dst, value dpos,
                                     value len)
{
  memcpy((char *) Caml_ba_data_val(dst) + Long_val(dpos),
         (char *) Caml_ba_data_val(src) + Long_val(spos), Long_val(len));
  return Val_unit;
}

/* Position of [c] in [ba[pos, pos+len)], or -1. */
CAMLprim value eden_chunk_memchr(value ba, value pos, value len, value c)
{
  char *base = (char *) Caml_ba_data_val(ba);
  char *p = memchr(base + Long_val(pos), Int_val(c), Long_val(len));
  return Val_long(p == NULL ? -1 : p - base);
}

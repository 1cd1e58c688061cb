/* The function pointer lives in a field of a heap struct. A field
 * projection on `heap` collapses to `heap` itself, so the call through
 * `s->fp` resolves to `one`; the heap is a summary location, so the
 * target is only possible. `one` takes one argument and the call
 * passes two: a possible arity mismatch. */
struct S {
    int (*fp)();
};

struct S *s;

int one(int a) {
    return a;
}

int main(void) {
    s = (struct S *) malloc(sizeof(struct S));
    s->fp = one;
    return s->fp(1, 2);
}

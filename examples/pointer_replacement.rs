//! The pointer-replacement transformation (§1/§6.1 of the paper):
//! definite points-to information lets `x = *q` become `x = y`.
//!
//! Run with `cargo run --example pointer_replacement`.

use pta::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = r#"
        struct config { int width; int height; int *mode; };
        int mode_flag;

        int area(void) {
            struct config c;
            struct config *pc;
            int w, h;
            pc = &c;                 /* pc definitely points to c      */
            c.width = 640;
            c.height = 480;
            c.mode = &mode_flag;
            w = pc->width;           /* replaceable by c.width         */
            h = pc->height;          /* replaceable by c.height        */
            return w * h + *c.mode;  /* *c.mode replaceable            */
        }

        int choose(int k, int *a, int *b) {
            int *sel;
            if (k) sel = a; else sel = b;
            return *sel;             /* NOT replaceable: two targets   */
        }

        int main(void) {
            int x, y;
            return area() + choose(1, &x, &y);
        }
    "#;

    let pta = run_source(source)?;
    let replacements = replaceable_refs(&pta.ir, &pta.result);

    println!("Replaceable indirect references:");
    for r in &replacements {
        println!("  {r}");
    }
    println!("\n{} replacement(s) found.", replacements.len());
    assert!(
        replacements
            .iter()
            .all(|r| r.function == "area" || r.function == "main"),
        "only definite single-target references replace"
    );
    Ok(())
}

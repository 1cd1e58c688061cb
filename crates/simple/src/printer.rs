//! Pretty-printer for SIMPLE form (used by tests, the CLI, and
//! debugging).

use crate::ir::*;
use pta_cfront::ast::{BinaryOp, UnaryOp};
use std::fmt::Write as _;

/// Renders a whole program in SIMPLE form.
pub fn print_program(p: &IrProgram) -> String {
    let mut out = String::new();
    for g in &p.globals {
        let _ = writeln!(out, "global {};", g.name);
    }
    for (id, f) in p.functions.iter().enumerate() {
        if !f.is_defined() {
            continue;
        }
        let _ = writeln!(out, "\nfunction {} (f{}) {{", f.name, id);
        for (i, v) in f.vars.iter().enumerate() {
            let kind = match v.kind {
                VarKind::Param(_) => "param",
                VarKind::Local => "local",
                VarKind::Temp => "temp",
            };
            let _ = writeln!(out, "  {kind} {} (v{i});", v.name);
        }
        if let Some(b) = &f.body {
            print_stmt(&mut out, p, f, b, 1);
        }
        let _ = writeln!(out, "}}");
    }
    out
}

/// Renders one function's body in SIMPLE form.
pub fn print_function(p: &IrProgram, f: &IrFunction) -> String {
    let mut out = String::new();
    if let Some(b) = &f.body {
        print_stmt(&mut out, p, f, b, 0);
    }
    out
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn print_stmt(out: &mut String, p: &IrProgram, f: &IrFunction, s: &Stmt, level: usize) {
    match s {
        Stmt::Basic(b, id) => {
            indent(out, level);
            let _ = writeln!(out, "{}  [{}]", basic_str(p, f, b), id);
        }
        Stmt::Seq(stmts) => {
            for s in stmts {
                print_stmt(out, p, f, s, level);
            }
        }
        Stmt::If {
            cond,
            then_s,
            else_s,
            id,
        } => {
            indent(out, level);
            let _ = writeln!(out, "if ({}) {{  [{}]", cond_str(p, f, cond), id);
            print_stmt(out, p, f, then_s, level + 1);
            if let Some(e) = else_s {
                indent(out, level);
                let _ = writeln!(out, "}} else {{");
                print_stmt(out, p, f, e, level + 1);
            }
            indent(out, level);
            let _ = writeln!(out, "}}");
        }
        Stmt::While {
            pre_cond,
            cond,
            body,
            id,
        } => {
            if pre_cond.count_basic() > 0 {
                indent(out, level);
                let _ = writeln!(out, "/* cond eval */");
                print_stmt(out, p, f, pre_cond, level);
            }
            indent(out, level);
            let _ = writeln!(out, "while ({}) {{  [{}]", cond_str(p, f, cond), id);
            print_stmt(out, p, f, body, level + 1);
            indent(out, level);
            let _ = writeln!(out, "}}");
        }
        Stmt::DoWhile {
            body,
            pre_cond,
            cond,
            id,
        } => {
            indent(out, level);
            let _ = writeln!(out, "do {{  [{}]", id);
            print_stmt(out, p, f, body, level + 1);
            print_stmt(out, p, f, pre_cond, level + 1);
            indent(out, level);
            let _ = writeln!(out, "}} while ({});", cond_str(p, f, cond));
        }
        Stmt::For {
            init,
            pre_cond,
            cond,
            step,
            body,
            id,
        } => {
            indent(out, level);
            let _ = writeln!(out, "for-init:  [{}]", id);
            print_stmt(out, p, f, init, level + 1);
            print_stmt(out, p, f, pre_cond, level + 1);
            indent(out, level);
            let _ = writeln!(out, "for ({}) {{", cond_str(p, f, cond));
            print_stmt(out, p, f, body, level + 1);
            indent(out, level);
            let _ = writeln!(out, "}} step {{");
            print_stmt(out, p, f, step, level + 1);
            indent(out, level);
            let _ = writeln!(out, "}}");
        }
        Stmt::Switch {
            scrutinee,
            arms,
            id,
            ..
        } => {
            indent(out, level);
            let _ = writeln!(
                out,
                "switch ({}) {{  [{}]",
                operand_str(p, f, scrutinee),
                id
            );
            for arm in arms {
                indent(out, level + 1);
                let labels: Vec<String> = arm
                    .labels
                    .iter()
                    .map(|l| match l {
                        Some(v) => format!("case {v}"),
                        None => "default".to_owned(),
                    })
                    .collect();
                let _ = writeln!(out, "{}:", labels.join(", "));
                print_stmt(out, p, f, &arm.body, level + 2);
            }
            indent(out, level);
            let _ = writeln!(out, "}}");
        }
        Stmt::Break(id) => {
            indent(out, level);
            let _ = writeln!(out, "break;  [{}]", id);
        }
        Stmt::Continue(id) => {
            indent(out, level);
            let _ = writeln!(out, "continue;  [{}]", id);
        }
    }
}

/// Renders a variable reference.
pub fn ref_str(p: &IrProgram, f: &IrFunction, r: &VarRef) -> String {
    match r {
        VarRef::Path(path) => path_str(p, f, path),
        VarRef::Deref { path, shift, after } => {
            let base = path_str(p, f, path);
            let mut s = match shift {
                IdxClass::Zero => format!("*{base}"),
                IdxClass::Positive => format!("*({base} + k)"),
                IdxClass::Unknown => format!("*({base} + ?)"),
            };
            for proj in after {
                match proj {
                    IrProj::Field(name) => {
                        s = format!("({s}).{name}");
                    }
                    IrProj::Index(c) => {
                        s = format!("({s}){}", idx_str(*c));
                    }
                }
            }
            s
        }
    }
}

fn idx_str(c: IdxClass) -> &'static str {
    match c {
        IdxClass::Zero => "[0]",
        IdxClass::Positive => "[+]",
        IdxClass::Unknown => "[?]",
    }
}

fn path_str(p: &IrProgram, f: &IrFunction, path: &VarPath) -> String {
    let mut s = match path.base {
        VarBase::Global(id) => p.global(id).name.clone(),
        VarBase::Var(id) => f.var(id).name.clone(),
    };
    for proj in &path.projs {
        match proj {
            IrProj::Field(name) => {
                s.push('.');
                s.push_str(name);
            }
            IrProj::Index(c) => s.push_str(idx_str(*c)),
        }
    }
    s
}

/// Renders an operand.
pub fn operand_str(p: &IrProgram, f: &IrFunction, op: &Operand) -> String {
    match op {
        Operand::Ref(r) => ref_str(p, f, r),
        Operand::Const(Const::Int(v)) => v.to_string(),
        Operand::Const(Const::Float(v)) => format!("{v:?}"),
        Operand::AddrOf(r) => format!("&{}", ref_str(p, f, r)),
        Operand::Func(id) => p.function(*id).name.clone(),
        Operand::Str(s) => format!("{s:?}"),
    }
}

fn unop_str(op: UnaryOp) -> &'static str {
    match op {
        UnaryOp::Neg => "-",
        UnaryOp::Not => "!",
        UnaryOp::BitNot => "~",
        UnaryOp::AddrOf => "&",
        UnaryOp::Deref => "*",
        UnaryOp::PreInc | UnaryOp::PostInc => "++",
        UnaryOp::PreDec | UnaryOp::PostDec => "--",
    }
}

fn binop_str(op: BinaryOp) -> &'static str {
    use BinaryOp::*;
    match op {
        Add => "+",
        Sub => "-",
        Mul => "*",
        Div => "/",
        Rem => "%",
        Shl => "<<",
        Shr => ">>",
        Lt => "<",
        Gt => ">",
        Le => "<=",
        Ge => ">=",
        Eq => "==",
        Ne => "!=",
        BitAnd => "&",
        BitOr => "|",
        BitXor => "^",
        LogAnd => "&&",
        LogOr => "||",
    }
}

/// Renders one basic statement as it appears in [`print_function`]
/// (without the program-point suffix).
pub fn basic_str(p: &IrProgram, f: &IrFunction, b: &BasicStmt) -> String {
    match b {
        BasicStmt::Copy { lhs, rhs } => {
            format!("{} = {};", ref_str(p, f, lhs), operand_str(p, f, rhs))
        }
        BasicStmt::Unary { lhs, op, rhs } => {
            format!(
                "{} = {}{};",
                ref_str(p, f, lhs),
                unop_str(*op),
                operand_str(p, f, rhs)
            )
        }
        BasicStmt::Binary { lhs, op, a, b } => format!(
            "{} = {} {} {};",
            ref_str(p, f, lhs),
            operand_str(p, f, a),
            binop_str(*op),
            operand_str(p, f, b)
        ),
        BasicStmt::PtrArith { lhs, ptr, shift } => {
            let sh = match shift {
                IdxClass::Zero => "+ 0",
                IdxClass::Positive => "+ k",
                IdxClass::Unknown => "+ ?",
            };
            format!("{} = {} {sh};", ref_str(p, f, lhs), ref_str(p, f, ptr))
        }
        BasicStmt::Alloc { lhs, size } => {
            format!(
                "{} = malloc({});",
                ref_str(p, f, lhs),
                operand_str(p, f, size)
            )
        }
        BasicStmt::Call {
            lhs,
            target,
            args,
            call_site,
        } => {
            let callee = match target {
                CallTarget::Direct(id) => p.function(*id).name.clone(),
                CallTarget::Indirect(r) => format!("(*{})", ref_str(p, f, r)),
            };
            let args: Vec<String> = args.iter().map(|a| operand_str(p, f, a)).collect();
            match lhs {
                Some(l) => format!(
                    "{} = {callee}({}); /* {call_site} */",
                    ref_str(p, f, l),
                    args.join(", ")
                ),
                None => format!("{callee}({}); /* {call_site} */", args.join(", ")),
            }
        }
        BasicStmt::Return(v) => match v {
            Some(v) => format!("return {};", operand_str(p, f, v)),
            None => "return;".to_owned(),
        },
    }
}

/// Renders a condition.
pub fn cond_str(p: &IrProgram, f: &IrFunction, c: &CondExpr) -> String {
    match c {
        CondExpr::Rel(op, a, b) => {
            format!(
                "{} {} {}",
                operand_str(p, f, a),
                binop_str(*op),
                operand_str(p, f, b)
            )
        }
        CondExpr::Test(a) => operand_str(p, f, a),
        CondExpr::Not(a) => format!("!{}", operand_str(p, f, a)),
        CondExpr::ConstTrue => "1".to_owned(),
    }
}

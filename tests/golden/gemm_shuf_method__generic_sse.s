	.section .note.GNU-stack,"",@progbits
	.text
	.globl dgemm_kernel
	.type dgemm_kernel, @function
	.p2align 4
dgemm_kernel:
	push	%r12
	push	%r13
	push	%r14
	push	%r15
	push	%rbp
	push	%rbx
	sub	$96, %rsp
	mov	%rdi, (%rsp)	# arg Mc
	mov	%rsi, 8(%rsp)	# arg Nc
	mov	%rdx, 16(%rsp)	# arg Kc
	mov	%rcx, 24(%rsp)	# arg A
	mov	%r8, 32(%rsp)	# arg B
	mov	%r9, 40(%rsp)	# arg C
	mov	152(%rsp), %rax	# stack arg LDC
	mov	%rax, 48(%rsp)
	mov	(%rsp), %r9	# home Mc
	mov	8(%rsp), %r10	# home Nc
	mov	16(%rsp), %rbx	# home Kc
	mov	24(%rsp), %r13	# home A
	mov	32(%rsp), %r14	# home B
	mov	48(%rsp), %r15	# home LDC
	mov	$0, %r12
	jmp	.LBL0
.LBL1:
	mov	%r12, %rax
	imul	%r15, %rax
	mov	40(%rsp), %rcx
	lea	(%rcx,%rax,8), %rcx
	mov	%r12, %rax
	imul	%r15, %rax
	mov	40(%rsp), %r8
	add	%r15, %rax
	lea	(%r8,%rax,8), %r8
	mov	$0, %rbp
	jmp	.LBL2
.LBL3:
	mov	%r13, %rdi
	mov	%rbp, %rax
	lea	(%rdi,%rax,8), %rdi
	mov	%r14, %rsi
	mov	%r12, %rax
	xorpd	%xmm8, %xmm8
	xorpd	%xmm9, %xmm9
	lea	(%rsi,%rax,8), %rsi
	mov	$0, %rdx
	jmp	.LBL4
.LBL5:
	prefetcht0	128(%rdi)
	prefetcht0	128(%rsi)
	# --- mmUnrolledCOMP ---
	movupd	(%rsi), %xmm4	# Vld ptr_B0[0..1]
	movupd	(%rdi), %xmm0	# Vld ptr_A0[0..1]
	movapd	%xmm4, %xmm5
	movapd	%xmm0, %xmm12	# p=0: acc[m] += a_m*b_m
	movapd	%xmm0, %xmm13	# p=1: acc[m] += a_m*b_{m^1}
	shufpd	$1, %xmm5, %xmm5
	mulpd	%xmm4, %xmm12
	mulpd	%xmm5, %xmm13
	mov	%r9, %rax
	addpd	%xmm12, %xmm8
	addpd	%xmm13, %xmm9
	lea	(%rdi,%rax,8), %rdi	# ptr_A0 += ...
	mov	%r10, %rax
	lea	(%rsi,%rax,8), %rsi	# ptr_B0 += ...
	add	$1, %rdx
.LBL4:
	cmp	%rbx, %rdx
	jl	.LBL5
	# --- mmUnrolledSTORE ---
	movapd	%xmm8, %xmm14
	movupd	(%rcx), %xmm10	# Vld ptr_C0[0..1]
	shufpd	$2, %xmm9, %xmm14
	addpd	%xmm14, %xmm10
	movupd	%xmm10, (%rcx)	# Vst ptr_C0[0..1]
	# --- mmUnrolledSTORE ---
	movapd	%xmm9, %xmm15
	movupd	(%r8), %xmm11	# Vld ptr_C1[0..1]
	shufpd	$2, %xmm8, %xmm15
	addpd	%xmm15, %xmm11
	movupd	%xmm11, (%r8)	# Vst ptr_C1[0..1]
	add	$16, %rcx	# ptr_C0 += 2
	add	$16, %r8	# ptr_C1 += 2
	add	$2, %rbp
.LBL2:
	cmp	%r9, %rbp
	jl	.LBL3
	add	$2, %r12
.LBL0:
	cmp	%r10, %r12
	jl	.LBL1
	add	$96, %rsp
	pop	%rbx
	pop	%rbp
	pop	%r15
	pop	%r14
	pop	%r13
	pop	%r12
	ret
	.size dgemm_kernel, .-dgemm_kernel
